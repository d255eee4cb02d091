"""The full mechanism at toy scale: clean pre-training, then noise-robust
pre-training of a student against its frozen teacher, then probing.

Takes a couple of minutes on one core.

Run:  python demos/03_two_stage_training.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from vicspeech import build_corpus, fit_kmeans
from vicspeech.analysis import channel_variance_report, linear_probe, n_accuracy
from vicspeech.model import EncoderConfig
from vicspeech.trainer import Corpus, TrainConfig, pretrain_clean, pretrain_noisy

# the corpora are read into memory, so their files go when the block ends
with tempfile.TemporaryDirectory(prefix="vicspeech_demo_") as workdir:
    train = Corpus.load(build_corpus(Path(workdir) / "train", n_utterances=16,
                                     corpus_seed=100, vocab_size=8, n_segments=8))
    ev = Corpus.load(build_corpus(Path(workdir) / "eval", n_utterances=6, corpus_seed=200,
                                  vocab_size=8, n_segments=8))
frames = np.concatenate([train.clean_features(i) for i in range(len(train))])
cb = fit_kmeans(frames, k=10, max_iters=50, seed=7)
print(f"codebook: k={cb.k}, inertia {cb.inertia:.1f}")

enc_cfg = EncoderConfig(feature_dim=40, model_dim=32, n_blocks=2, mlp_hidden=64,
                        k_codewords=cb.k)
cfg = TrainConfig(steps=300, batch_utterances=6, learning_rate=1e-3, seed=1,
                  noise_kinds=("music", "natural"), snr_range_db=(5.0, 10.0))

# --- stage 0: clean masked-prediction pre-training -> teacher -------------
teacher, tlog = pretrain_clean(train, cb, cfg, enc_cfg=enc_cfg)
print(f"stage 0: masked loss {tlog.steps[0].l_m:.3f} -> {tlog.steps[-1].l_m:.3f} "
      f"(ln k = {np.log(cb.k):.3f})")

# --- stage 1: three students on noisy input -------------------------------
conditions = [(k, s) for k in ("babble", "music") for s in (0.0, 15.0)]
conditions.append(("clean", float("inf")))

flags = {"baseline": (False, False, False),
         "invariance-only": (True, False, False),
         "full regularizer": (True, True, True)}
run_cfgs = [replace(cfg, use_inv=inv, use_var=var, use_cov=cov) for inv, var, cov in flags.values()]
# one seed: the three students train in lockstep, on one noisy batch per step
students = {}
for tag, (student, slog) in zip(flags, pretrain_noisy(teacher, train, cb, run_cfgs)):
    students[tag] = student
    last = slog.steps[-1]
    print(f"\nstage 1 [{tag}]")
    print(f"  final l_m {last.l_m:.3f}  s {last.s:.2f}  v {last.v:.4f}  c {last.c:.4f}")
    results = linear_probe(student, train, conditions, seed=0, eval_corpus=ev)
    for r in results:
        snr = "inf" if np.isinf(r.snr_db) else f"{r.snr_db:g}"
        print(f"  probe {r.noise_kind:>6} @ {snr:>4} dB: {r.frame_accuracy:.3f}")
    print(f"  N-accuracy {n_accuracy(results):.3f}")

# --- the variance-vs-SNR picture -------------------------------------------
print("\nchannel variance of last-layer representations vs SNR (full student):")
report = channel_variance_report(students["full regularizer"], ev,
                                 ["babble", "music"], [0.0, 5.0, 15.0], seed=3)
for row in report.rows:
    print(f"  {row.noise_kind:>6} @ {row.snr_db:4.0f} dB: {row.mean_channel_variance:.4f}")
print("(higher SNR should show higher variance)")
