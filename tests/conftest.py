"""Shared fixtures: the benchmark's binding table, a small synthetic corpus
for unit tests and the training benchmark used by the slow/acceptance tests,
with its teacher and its ablation students."""

import importlib.util
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

# One BLAS thread, set before numpy loads, as perfbench/run.py does. Output
# bytes depend on the BLAS thread count, so this makes the suite's numbers the
# same on every machine; and at this model size extra BLAS threads only wait
# on each other, many times over when the host's cores are busy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from vicspeech.codebook import fit_kmeans
from vicspeech.losses import VicWeights
from vicspeech.model import EncoderConfig
from vicspeech.signal import build_corpus
from vicspeech.trainer import Corpus, TrainConfig


def _perfbench_module(stem: str):
    """perfbench/<stem>.py, loaded as a module of its own."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="session")
def spans():
    """perfbench/spans.py, whose `FUNCTIONS` table names each package
    function the benchmark rebinds and the modules it rebinds it in."""
    return _perfbench_module("spans")


@pytest.fixture(scope="session")
def workloads():
    """perfbench/workloads.py, the benchmark's inputs and timed passes."""
    return _perfbench_module("workloads")


@pytest.fixture(scope="session")
def mini_corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_corpus")
    build_corpus(out, n_utterances=6, corpus_seed=100, vocab_size=6, n_segments=6)
    return out


@pytest.fixture(scope="session")
def mini_corpus(mini_corpus_dir):
    return Corpus.load(mini_corpus_dir / "manifest.tsv")


@pytest.fixture(scope="session")
def mini_codebook(mini_corpus):
    frames = np.concatenate([mini_corpus.clean_features(i) for i in range(len(mini_corpus))])
    return fit_kmeans(frames, k=6, max_iters=30, seed=7)


@pytest.fixture(scope="session")
def mini_encoder_config():
    return EncoderConfig(feature_dim=40, model_dim=16, n_blocks=1, mlp_hidden=32,
                         k_codewords=6, mask_start_prob=0.12, mask_span=5)


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    """The synthetic benchmark behind the slow tests: 24 train / 8 eval
    utterances, k=12 codebook, d=32 encoder, music+natural training noise,
    hinge threshold matched to this encoder's representation scale."""
    root = tmp_path_factory.mktemp("bench")
    train_manifest = build_corpus(root / "train", n_utterances=24, corpus_seed=100,
                                  vocab_size=8, n_segments=10)
    eval_manifest = build_corpus(root / "eval", n_utterances=8, corpus_seed=200,
                                 vocab_size=8, n_segments=10)
    train = Corpus.load(train_manifest)
    ev = Corpus.load(eval_manifest)
    frames = np.concatenate([train.clean_features(i) for i in range(len(train))])
    cb = fit_kmeans(frames, k=12, max_iters=50, seed=7)
    enc_cfg = EncoderConfig(feature_dim=40, model_dim=32, n_blocks=2, mlp_hidden=64,
                            k_codewords=12)
    base_cfg = TrainConfig(steps=400, batch_utterances=8, learning_rate=1e-3, seed=10,
                           noise_kinds=("music", "natural"), snr_range_db=(5.0, 10.0),
                           vic=VicWeights(gamma=2.0))
    return dict(root=root, train_manifest=train_manifest, eval_manifest=eval_manifest,
                train=train, ev=ev, cb=cb, enc_cfg=enc_cfg, base_cfg=base_cfg)


@pytest.fixture(scope="session")
def bench_teacher(bench):
    """The benchmark's stage-0 teacher (600 clean steps)."""
    from dataclasses import replace

    from vicspeech.trainer import pretrain_clean

    state, log = pretrain_clean(bench["train"], bench["cb"],
                                replace(bench["base_cfg"], steps=600),
                                enc_cfg=bench["enc_cfg"])
    return state, log


def _ablation_of_seed(bench, teacher, conditions, seed):
    from vicspeech.analysis import ablation_run

    return ablation_run(teacher, bench["base_cfg"], bench["train"], bench["cb"], (seed,),
                        conditions, eval_corpus=bench["ev"], probe_seed=0)


@pytest.fixture(scope="session")
def ablation(bench, bench_teacher):
    """The four cumulative configurations trained from the shared teacher
    across seeds 1-3 (the `SEEDS` of test_acceptance), each probed over babble,
    music and natural noise at 0 and 15 dB and on clean input. Session-wide
    because the slow tests of several modules read these students.

    Each seed runs `ablation_run` in a process of its own. A (config, seed)
    run does not depend on the other seeds, so the students, logs and probe
    results are those of one `ablation_run` over seeds 1-3. The per-config
    rows average over seeds, so `rows` is left empty."""
    from vicspeech.analysis import AblationResult

    seeds = (1, 2, 3)
    conditions = [(k, s) for k in ("babble", "music", "natural") for s in (0.0, 15.0)]
    conditions.append(("clean", float("inf")))
    # fork is safe here: BLAS runs single-threaded (see the top of this file)
    with ProcessPoolExecutor(max_workers=len(seeds),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        parts = list(pool.map(partial(_ablation_of_seed, bench, bench_teacher[0], conditions),
                              seeds))
    return AblationResult(
        rows=[],
        students={k: v for part in parts for k, v in part.students.items()},
        logs={k: v for part in parts for k, v in part.logs.items()},
        probe_results={k: v for part in parts for k, v in part.probe_results.items()})
