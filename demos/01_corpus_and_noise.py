"""Build a small synthetic corpus, mix noise at exact SNRs, and look at features.

Run:  python demos/01_corpus_and_noise.py
"""

import tempfile
from pathlib import Path

import numpy as np

from vicspeech import (
    build_corpus,
    extract_features,
    frame_labels,
    measure_snr,
    mix_at_snr,
    synth_noise,
    synth_utterance,
)
from vicspeech.signal import SAMPLE_RATE
from vicspeech.trainer import Corpus

# --- one utterance -----------------------------------------------------
utt = synth_utterance(seed=7, n_segments=8, vocab_size=8)
print(f"utterance {utt.id}: {len(utt.wave)} samples "
      f"({len(utt.wave) / SAMPLE_RATE:.2f} s), segments:")
for sym, start, end in utt.unit_labels:
    print(f"  symbol {sym}  [{start:6d}, {end:6d})  {(end - start) / SAMPLE_RATE * 1000:5.1f} ms")

# --- noise families and exact-SNR mixing --------------------------------
print("\nmixing each noise family at 5 dB and measuring the result:")
for kind in ("babble", "music", "natural"):
    noise = synth_noise(kind, seed=3, n_samples=len(utt.wave))
    sample = mix_at_snr(utt.wave, noise, 5.0)
    achieved = measure_snr(utt.wave.samples,
                           sample.mixed.samples * sample.peak_scale - utt.wave.samples)
    print(f"  {kind:>8}: gain {sample.gain:.4f}, measured SNR {achieved:.9f} dB")

# --- log-mel features ----------------------------------------------------
feats = extract_features(utt.wave)
print(f"\nlog-mel features: {feats.shape[0]} frames x {feats.shape[1]} filters")
print(f"frame labels (first 20): {frame_labels(utt)[:20].tolist()}")

# --- a corpus on disk, read into memory, then removed ----------------------
with tempfile.TemporaryDirectory(prefix="vicspeech_demo_") as workdir:
    manifest = build_corpus(Path(workdir) / "corpus", n_utterances=6, corpus_seed=100,
                            vocab_size=8, n_segments=8)
    corpus = Corpus.load(manifest)
    print(f"\ncorpus written: {manifest}")
print(f"{len(corpus)} utterances, first id {corpus.utterances[0].id}")

# same-symbol segments sit closer in feature space than cross-symbol ones
cents = {}
for i in range(len(corpus)):
    fs, labels = corpus.clean_features(i), corpus.frame_labels(i)
    for sym in np.unique(labels):
        cents.setdefault(int(sym), []).append(fs[labels == sym].mean(axis=0))
same, diff = [], []
keys = sorted(cents)
for a in keys:
    for b in keys:
        for x in cents[a]:
            for y in cents[b]:
                if x is y:
                    continue
                (same if a == b else diff).append(np.linalg.norm(x - y))
print(f"mean same-symbol centroid distance  {np.mean(same):7.3f}")
print(f"mean cross-symbol centroid distance {np.mean(diff):7.3f}")
