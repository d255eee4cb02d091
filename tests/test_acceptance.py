"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -v -s``). The
trend criteria (6-8) run on the benchmark: a synthetic corpus of 24 train and
8 eval utterances (vocabulary 8, disjoint corpus seeds), a k=12 codebook, a
d=32 two-block encoder, one 600-step clean teacher, and twelve 400-step
noise-robust students (four cumulative regularizer configurations x three
seeds) trained on music+natural noise at 5-10 dB with the regularizer weights
lambda=5, mu=nu=1, epsilon=1e-4, alpha=1. The variance threshold is
gamma=2.0, matched to this encoder's representation scale (no final layer
norm, channel stds sit near 2) so the hinge is active the way it is for a
layer-normalized full-scale model at gamma=1.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from vicspeech import analysis
from vicspeech.cli import run as cli_run
from vicspeech.losses import covariance, invariance, variance
from vicspeech.signal import measure_snr, mix_at_snr, synth_noise, synth_utterance
from vicspeech.trainer import TrainConfig, pretrain_noisy

from test_trainer import _reference_lm_only_loop

pytestmark = pytest.mark.slow

# the seeds and the probe grid of the `ablation` fixture in conftest
SEEDS = (1, 2, 3)
EVAL_KINDS = ("babble", "music", "natural")
EVAL_SNRS = (0.0, 15.0)


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[{tag}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def _clean_accuracy(results):
    return next(r.frame_accuracy for r in results if np.isinf(r.snr_db))


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_1_gradient_correctness(capsys=None):
    t0 = time.time()
    reports = analysis.gradcheck_suite(seed=0, step=1e-5)
    elapsed = time.time() - t0
    worst = max(rep.max_rel_error for _, rep in reports)
    names = [name for name, _ in reports]
    assert "full_model_total" in names
    _report(1, "gradient correctness (all analytic gradients, step 1e-5)",
            worst <= 1e-4 and elapsed < 60.0,
            f"worst rel error {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_closed_form_values():
    z = np.array([[0.0, 0.0], [1.0, 1.0]])
    zp = np.array([[3.0, 4.0], [1.0, 1.0]])
    s, _ = invariance(z, zp)
    v, _ = variance(np.full((4, 1), 2.5), gamma=1.0, epsilon=1e-4)
    c, _ = covariance(np.array([[1.0, 2.0], [-1.0, -2.0]]))
    combo = 5.0 * 2.0 + 1.0 * 0.5 + 1.0 * 0.25
    ok = (abs(s - 12.5) <= 1e-12 and abs(v - 0.99) <= 1e-12
          and abs(c - 16.0) <= 1e-12 and abs(combo - 10.75) <= 1e-12)
    _report(2, "closed-form values (12.5 / 0.99 / 16 / 10.75 to 1e-12)", ok,
            f"s={s!r} v={v!r} c={c!r} combo={combo!r}")


def test_criterion_3_fixed_points():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((64, 8))
    zp = rng.standard_normal((64, 8))
    for _ in range(5000):
        s, grad = invariance(z, zp)
        if s < 1e-8:
            break
        zp = zp - 16.0 * grad
    s_final, _ = invariance(z, zp)

    zp_v = 0.05 * rng.standard_normal((64, 8))
    for _ in range(5000):
        _, grad = variance(zp_v, 1.0, 1e-4)
        zp_v = zp_v - 1.0 * grad
    stds = np.sqrt(zp_v.var(axis=0, ddof=1) + 1e-4)

    mixer = np.eye(8) + 0.4 * rng.standard_normal((8, 8))
    zp_c = rng.standard_normal((64, 8)) @ mixer
    for _ in range(5000):
        _, grad = covariance(zp_c)
        zp_c = zp_c - 2.0 * grad
    dev = zp_c - zp_c.mean(axis=0, keepdims=True)
    off = dev.T @ dev / 63.0
    off -= np.diag(np.diag(off))

    ok = s_final < 1e-8 and np.all(stds >= 1.0 - 1e-3) and np.abs(off).max() < 1e-4
    _report(3, "fixed points of each regularizer under direct gradient descent", ok,
            f"s={s_final:.2e}, min std={stds.min():.5f}, max |offdiag|={np.abs(off).max():.2e}")


def test_criterion_4_snr_exactness():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        clean = synth_utterance(int(rng.integers(2**31)), n_segments=3, vocab_size=6).wave
        kind = ("babble", "music", "natural")[trial % 3]
        noise = synth_noise(kind, int(rng.integers(2**31)), len(clean))
        target = float(rng.uniform(0.0, 15.0))
        ns = mix_at_snr(clean, noise, target)
        measured = measure_snr(clean.samples, ns.mixed.samples * ns.peak_scale - clean.samples)
        worst = max(worst, abs(measured - target))
    _report(4, "SNR exactness over 100 random triples (pre-normalization)",
            worst <= 1e-6, f"worst |error| {worst:.2e} dB")


def test_criterion_5_reduction_and_ablate(bench, mini_corpus, mini_codebook,
                                          mini_encoder_config, tmp_path):
    # (a) flags-off stage 1 is bit-identical to an independent masked-
    #     prediction-only loop on shared seeds
    from vicspeech.trainer import pretrain_clean

    tiny = TrainConfig(steps=8, batch_utterances=3, learning_rate=1e-3, seed=5,
                       noise_kinds=("music", "natural"))
    teacher, _ = pretrain_clean(mini_corpus, mini_codebook, tiny,
                                enc_cfg=mini_encoder_config)
    off = replace(tiny, use_inv=False, use_var=False, use_cov=False)
    [(_, log)] = pretrain_noisy(teacher, mini_corpus, mini_codebook, [off])
    ref = _reference_lm_only_loop(teacher, mini_corpus, mini_codebook, off)
    identical = [b.l_m for b in log.steps] == ref

    # (b) the ablate command emits the four cumulative configurations
    codebook = str(_save_bench_codebook(bench, tmp_path))
    teacher_ckpt = tmp_path / "teacher.ckpt"
    pretrain_code = cli_run([
        "pretrain", "--manifest", str(bench["train_manifest"]), "--codebook", codebook,
        "--out", str(teacher_ckpt), "--steps", "3", "--batch-utterances", "2",
        "--model-dim", "32", "--n-blocks", "2", "--mlp-hidden", "64", "--k", "12",
        "--train-seed", "10"])
    out = tmp_path / "ablation.csv"
    code = cli_run([
        "ablate", "--manifest", str(bench["train_manifest"]),
        "--eval-manifest", str(bench["eval_manifest"]),
        "--codebook", codebook, "--teacher", str(teacher_ckpt),
        "--out", str(out), "--seeds", "1", "--steps", "3", "--batch-utterances", "2",
        "--noise-kinds", "natural", "--eval-noise-kinds", "natural",
        "--snr-levels", "5,inf"])
    tags = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    ok = identical and pretrain_code == code == 0 and tags == ["lm", "lm+inv",
                                                               "lm+inv+var",
                                                               "lm+inv+var+cov"]
    _report(5, "reduction property bit-identical; ablate emits 4 cumulative rows",
            ok, f"identical={identical}, tags={tags}")


def _save_bench_codebook(bench, tmp_path):
    from vicspeech.checkpoint import save_codebook

    path = tmp_path / "bench_cb.ckpt"
    save_codebook(path, bench["cb"])
    return path


def test_criterion_6_anti_collapse_trend(bench, ablation):
    details = []
    ok = True
    for seed in SEEDS:
        with_var = analysis.mean_sampled_channel_std(
            ablation.students[("lm+inv+var", seed)], bench["train"],
            bench["base_cfg"].noise_kinds, bench["base_cfg"].snr_range_db, 256, seed=5)
        without = analysis.mean_sampled_channel_std(
            ablation.students[("lm+inv", seed)], bench["train"],
            bench["base_cfg"].noise_kinds, bench["base_cfg"].snr_range_db, 256, seed=5)
        details.append(f"seed {seed}: {with_var:.4f} vs {without:.4f}")
        ok = ok and (with_var > without)
    _report(6, "variance term strictly raises mean sampled channel std (per seed)",
            ok, "; ".join(details))


def test_criterion_7_variance_vs_snr_trend(bench, ablation, tmp_path):
    ok = True
    details = []
    for seed in SEEDS:
        student = ablation.students[("lm+inv+var+cov", seed)]
        report = analysis.channel_variance_report(
            student, bench["ev"], ("babble", "music"), (0.0, 15.0), seed=3,
            model_tag=f"vic_seed{seed}")
        csv_path = tmp_path / f"variance_seed{seed}.csv"
        report.write_csv(csv_path)
        assert csv_path.exists() and len(csv_path.read_text().splitlines()) == 5
        for kind in ("babble", "music"):
            v0 = report.cell(kind, 0.0).mean_channel_variance
            v15 = report.cell(kind, 15.0).mean_channel_variance
            ok = ok and (v15 > v0)
            details.append(f"s{seed}/{kind}: {v15:.3f}>{v0:.3f}")
    _report(7, "mean channel variance at SNR 15 exceeds SNR 0 (babble & music, per seed)",
            ok, "; ".join(details))


def test_criterion_8_probe_ordering_and_pipeline_time(bench, bench_teacher, ablation,
                                                       tmp_path):
    # (a) orderings from the benchmark students
    full_n = np.mean([analysis.n_accuracy(ablation.probe_results[("lm+inv+var+cov", s)])
                      for s in SEEDS])
    base_n = np.mean([analysis.n_accuracy(ablation.probe_results[("lm", s)])
                      for s in SEEDS])
    conditions = [(k, s) for k in EVAL_KINDS for s in EVAL_SNRS] + [("clean", float("inf"))]
    teacher_results = analysis.linear_probe(bench_teacher[0], bench["train"], conditions,
                                            seed=0, eval_corpus=bench["ev"])
    teacher_clean = _clean_accuracy(teacher_results)
    full_clean = np.mean([_clean_accuracy(ablation.probe_results[("lm+inv+var+cov", s)])
                          for s in SEEDS])
    ordering_ok = (full_n >= base_n) and (full_clean >= 0.98 * teacher_clean)

    # (b) the full pipeline through the CLI in under 30 minutes
    root = tmp_path / "pipeline"
    root.mkdir()
    cfg_file = root / "bench.cfg"
    cfg_file.write_text(
        "n_utterances = 24\nvocab_size = 8\nn_segments = 10\ncorpus_seed = 100\n"
        "k = 12\nmodel_dim = 32\nn_blocks = 2\nmlp_hidden = 64\n"
        "learning_rate = 0.001\nbatch_utterances = 8\nnoise_kinds = music,natural\n"
        "gamma = 2.0\ntrain_seed = 10\n")
    t0 = time.time()
    steps = [
        ["synth", "--out", str(root / "corpus"), "--config", str(cfg_file)],
        ["kmeans", "--manifest", str(root / "corpus/manifest.tsv"),
         "--out", str(root / "cb.ckpt"), "--config", str(cfg_file)],
        ["pretrain", "--manifest", str(root / "corpus/manifest.tsv"),
         "--codebook", str(root / "cb.ckpt"), "--out", str(root / "teacher.ckpt"),
         "--log", str(root / "teacher.csv"), "--config", str(cfg_file),
         "--steps", "600"],
        ["vic-pretrain", "--teacher", str(root / "teacher.ckpt"),
         "--manifest", str(root / "corpus/manifest.tsv"),
         "--codebook", str(root / "cb.ckpt"), "--out", str(root / "student.ckpt"),
         "--log", str(root / "student.csv"), "--config", str(cfg_file),
         "--steps", "400", "--inv", "--var", "--cov", "--train-seed", "1"],
        ["probe", "--encoder", str(root / "student.ckpt"),
         "--train-manifest", str(root / "corpus/manifest.tsv"),
         "--out", str(root / "probe.csv"), "--config", str(cfg_file),
         "--snr-levels", "0,15,inf", "--noise-kinds", "babble,music,natural",
         "--seed", "0"],
    ]
    for argv in steps:
        assert cli_run(argv) == 0, f"pipeline step failed: {argv[0]}"
    elapsed = time.time() - t0
    ok = ordering_ok and elapsed < 1800.0
    _report(8, "probe ordering (noisy & clean) and full CLI pipeline under 30 min",
            ok, f"N-acc {full_n:.4f}>= {base_n:.4f}; clean {full_clean:.4f}>="
                f"0.98*{teacher_clean:.4f}; pipeline {elapsed:.0f}s")


def test_probe_snr_monotonicity_reference(ablation):
    """Reference property, not a numbered criterion: every trained student
    probes at least as well on clean input as at 0 dB, per noise kind and
    per seed."""
    for (tag, seed), results in ablation.probe_results.items():
        clean = _clean_accuracy(results)
        for r in results:
            if r.snr_db == 0.0:
                assert clean >= r.frame_accuracy, (tag, seed, r.noise_kind)
    print("\n[PASS] reference: clean probe accuracy >= 0 dB accuracy for every "
          "trained student, kind, and seed")


def test_criterion_9_full_pipeline_determinism(tmp_path):
    outputs = []
    for run_dir in ("a", "b"):
        root = tmp_path / run_dir
        root.mkdir()
        argvs = [
            ["synth", "--out", str(root / "corpus"), "--n-utterances", "5",
             "--vocab-size", "5", "--n-segments", "5", "--corpus-seed", "42"],
            ["kmeans", "--manifest", str(root / "corpus/manifest.tsv"),
             "--out", str(root / "cb.ckpt"), "--k", "5"],
            ["pretrain", "--manifest", str(root / "corpus/manifest.tsv"),
             "--codebook", str(root / "cb.ckpt"), "--out", str(root / "teacher.ckpt"),
             "--log", str(root / "teacher.csv"), "--steps", "8",
             "--batch-utterances", "3", "--model-dim", "16", "--n-blocks", "1",
             "--mlp-hidden", "24", "--k", "5", "--train-seed", "3"],
            ["vic-pretrain", "--teacher", str(root / "teacher.ckpt"),
             "--manifest", str(root / "corpus/manifest.tsv"),
             "--codebook", str(root / "cb.ckpt"), "--out", str(root / "student.ckpt"),
             "--log", str(root / "student.csv"), "--steps", "6",
             "--batch-utterances", "3", "--inv", "--var", "--cov",
             "--noise-kinds", "music,natural", "--train-seed", "4"],
            ["probe", "--encoder", str(root / "student.ckpt"),
             "--train-manifest", str(root / "corpus/manifest.tsv"),
             "--out", str(root / "probe.csv"), "--snr-levels", "5,inf",
             "--noise-kinds", "natural", "--seed", "1"],
        ]
        for argv in argvs:
            assert cli_run(argv) == 0
        outputs.append({
            name: (root / name).read_bytes()
            for name in ("cb.ckpt", "teacher.ckpt", "student.ckpt",
                         "teacher.csv", "student.csv", "probe.csv")
        })
        outputs[-1]["wav"] = (root / "corpus/wav/utt0000.wav").read_bytes()
    mismatched = [k for k in outputs[0] if outputs[0][k] != outputs[1][k]]
    _report(9, "two identical-seed pipeline runs are byte-identical",
            not mismatched, f"mismatched={mismatched or 'none'}")
