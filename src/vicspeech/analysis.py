"""Representation statistics, the linear probe, the ablation table, and the
gradient-check suite.

Evaluation noise draws use seed tags disjoint from the training stream, so
eval excerpts never repeat training noise.

The probe's softmax-regression fit runs in one forked child process (POSIX)
while the caller encodes the eval grid. The child computes the same float64
arithmetic on the same BLAS, so every output byte is the in-process fit's.
The parent holds the reps only of the rows it encoded before the fit ended.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Sequence

import numpy as np

from . import codebook as cb_mod
from .losses import VicWeights, covariance, invariance, masked_prediction_loss, sample_frames, \
    variance
from .model import EncoderConfig, EncoderState, MaskSpec, forward, init_encoder, param_layout
# not called here: kept so that the perfbench benchmark can rebind them in this module
from .model import backward, predict_codewords  # noqa: F401
from .numerics import GradCheckReport, Matrix, as_matrix, grad_check, softmax_xent
# not called here: kept so that the perfbench benchmark can rebind them in this module
from .signal import extract_features, mix_at_snr, synth_noise  # noqa: F401
from .trainer import AdamState, Corpus, EvalRow, TrainConfig, TrainLog, adam_step, \
    derive_seed, pretrain_noisy, step_objective, write_csv
# not called here: kept so that the perfbench benchmark can rebind them in this module
from .trainer import pretrain_clean  # noqa: F401

__all__ = [
    "VarianceRow",
    "VarianceReport",
    "ProbeResult",
    "AblationRow",
    "AblationResult",
    "pooled_channel_variance",
    "channel_variance_report",
    "fit_linear_probe",
    "linear_probe",
    "n_accuracy",
    "mean_sampled_channel_std",
    "ablation_run",
    "gradcheck_suite",
]

# eval-only seed tags (training uses 1..4)
_TAG_EVAL_NOISE = 101
_TAG_PROBE_NOISE = 102
_TAG_SAMPLE_STD = 103

_PROBE_LR = 0.05  # the linear probe's Adam step size
_HOOK_PROBE_ITERS = 100  # the training-time eval's probe fit steps
_HOOK_CONDITION = ("natural", 7.5, 0)  # the training-time eval's noise kind, SNR and seed
_N_MODEL_COORDS = 220  # encoder coordinates the full-model gradcheck draws at random


def _snr_str(snr_db: float) -> str:
    return "inf" if np.isinf(snr_db) else repr(float(snr_db))


def _encode(enc: EncoderState, corpus: Corpus, kind: str = "clean", snr_db: float = np.inf,
            seed: int = 0, tag: int = 0):
    """Yield the final-layer reps of each utterance of `corpus`, in order, with
    utterance i's noise drawn from ``derive_seed(seed, tag, i)``; SNR +inf (the
    default) reads the clean features."""
    for i in range(len(corpus)):
        feats = corpus.condition_features(i, kind, snr_db, derive_seed(seed, tag, i))
        yield forward(enc, feats, training=False)[0]


# ----------------------------------------------------------------------
# channel-variance report
# ----------------------------------------------------------------------

def pooled_channel_variance(reps_list: Sequence[Matrix]) -> np.ndarray:
    """Unbiased per-channel variance over all frames pooled across utterances."""
    pooled = np.concatenate([as_matrix(r, "reps") for r in reps_list], axis=0)
    if pooled.shape[0] < 2:
        raise ValueError("need at least two pooled frames")
    return pooled.var(axis=0, ddof=1)


@dataclass
class VarianceRow:
    model_tag: str
    noise_kind: str
    snr_db: float
    mean_channel_variance: float
    per_channel: np.ndarray


@dataclass
class VarianceReport:
    rows: list[VarianceRow] = field(default_factory=list)

    def write_csv(self, path) -> None:
        write_csv(path, ["model_tag", "noise_kind", "snr_db", "mean_channel_variance"],
                  ([r.model_tag, r.noise_kind, _snr_str(r.snr_db), r.mean_channel_variance]
                   for r in self.rows))

    def write_per_channel_csv(self, path) -> None:
        if not self.rows:
            raise ValueError("empty report")
        d = self.rows[0].per_channel.size
        write_csv(path, ["model_tag", "noise_kind", "snr_db"] + [f"ch{i}" for i in range(d)],
                  ([r.model_tag, r.noise_kind, _snr_str(r.snr_db), *r.per_channel]
                   for r in self.rows))

    def cell(self, noise_kind: str, snr_db: float) -> VarianceRow:
        for r in self.rows:
            if r.noise_kind == noise_kind and (
                (np.isinf(snr_db) and np.isinf(r.snr_db)) or r.snr_db == snr_db
            ):
                return r
        raise KeyError((noise_kind, snr_db))


def channel_variance_report(
    enc: EncoderState,
    eval_corpus: Corpus,
    noise_kinds: Sequence[str],
    snr_levels_db: Sequence[float],
    seed: int = 0,
    model_tag: str = "model",
) -> VarianceReport:
    """Per-channel variance of final-layer representations, pooled over the
    eval set, for each (noise kind, SNR) cell; SNR inf is the clean sentinel.
    The clean reps do not depend on the noise kind, so every kind's clean row
    shares one read-only per-channel vector."""
    report = VarianceReport()
    cells: dict[object, np.ndarray] = {}
    for kind in noise_kinds:
        for snr in snr_levels_db:
            key = "clean" if snr == np.inf else (kind, snr)
            if key not in cells:
                cells[key] = pooled_channel_variance(
                    list(_encode(enc, eval_corpus, kind, snr, seed, _TAG_EVAL_NOISE)))
                cells[key].setflags(write=False)
            per_channel = cells[key]
            report.rows.append(VarianceRow(
                model_tag=model_tag, noise_kind=kind, snr_db=float(snr),
                mean_channel_variance=float(per_channel.mean()), per_channel=per_channel))
    return report


# ----------------------------------------------------------------------
# linear probe
# ----------------------------------------------------------------------

@dataclass
class ProbeResult:
    noise_kind: str
    snr_db: float
    frame_accuracy: float
    n_frames: int


@dataclass
class LinearProbe:
    weight: np.ndarray  # d x n_classes
    bias: np.ndarray

    def predict(self, reps: Matrix) -> np.ndarray:
        return (reps @ self.weight + self.bias).argmax(axis=1)


def _check_labelled(*corpora: Corpus) -> None:
    """Raise, naming it, on an utterance of `corpora` without unit labels."""
    for corpus in corpora:
        for i in range(len(corpus)):
            corpus.frame_labels(i)


def _probe_counts(probe: LinearProbe, corpus: Corpus, encoded) -> tuple[int, int]:
    """(frames the probe labels correctly, frames) over `_encode`'s `corpus` output."""
    correct = frames = 0
    for i, reps in enumerate(encoded):
        labels = corpus.frame_labels(i)
        correct += int((probe.predict(reps) == labels).sum())
        frames += labels.size
    return correct, frames


class ProbeFit:
    """`_fit_softmax_regression(x, y, iters, _PROBE_LR)` run in one forked
    child process, which sends back the parameters, or the message of the
    error it raised, through a pipe. Use it as a context manager: leaving the
    block kills a child that still runs, reaps it and closes the pipe."""

    def __init__(self, x: Matrix, y: np.ndarray, iters: int):
        self._probe: LinearProbe | None = None
        self._d = x.shape[1]
        read_fd, write_fd = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self._pid == 0:  # the child leaves only through os._exit, flushing no stdio buffer
            code = 1
            try:
                os.close(read_fd)
                try:
                    probe = _fit_softmax_regression(x, y, iters, _PROBE_LR)
                    payload = b"P" + np.vstack([probe.weight, probe.bias]).tobytes()
                except Exception as exc:
                    payload = b"E" + str(exc).encode()
                with open(write_fd, "wb") as pipe:
                    pipe.write(payload)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self._fd = read_fd

    def __enter__(self) -> ProbeFit:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def done(self) -> bool:
        """Whether `result` would return or raise without waiting for the fit."""
        # imported here, not at the top, so that a command that fits no probe never loads it
        import select

        if self._fd < 0:
            return True
        poll = select.poll()
        poll.register(self._fd, select.POLLIN)
        return bool(poll.poll(0))

    def result(self) -> LinearProbe:
        """Wait for the fit, reap the child and return the probe. The child's
        error is raised here as a RuntimeError with its message."""
        if self._probe is None:
            try:
                chunks = []
                while chunk := os.read(self._fd, 1 << 16):
                    chunks.append(chunk)
                code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
                self._pid = 0
            finally:
                self.close()
            data = b"".join(chunks)
            if code != 0 or not data:
                raise RuntimeError(f"the linear probe fit's process ended with code {code}")
            if data[:1] == b"E":
                raise RuntimeError(data[1:].decode())
            params = np.frombuffer(data, offset=1).reshape(self._d + 1, -1)
            self._probe = LinearProbe(weight=params[:-1].copy(), bias=params[-1].copy())
        return self._probe

    def close(self) -> None:
        """Kill the child if it is not reaped yet, reap it and close the pipe."""
        if self._pid:
            from signal import SIGKILL  # only a parent that unwinds before `result` kills

            os.kill(self._pid, SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = 0
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1


def fit_linear_probe(enc: EncoderState, train_corpus: Corpus,
                     iters: int = 300) -> tuple[ProbeFit, Matrix, np.ndarray]:
    """Softmax regression from frozen clean representations to unit symbols.
    Returns the running fit and the pooled representations, cast to float64,
    and labels it is fitted on, in corpus order."""
    y = np.concatenate([train_corpus.frame_labels(i) for i in range(len(train_corpus))])
    x = np.concatenate(list(_encode(enc, train_corpus)), dtype=np.float64)
    return ProbeFit(x, y, iters), x, y


def _fit_softmax_regression(x: Matrix, y: np.ndarray, iters: int, lr: float) -> LinearProbe:
    """Full-batch Adam on the mean cross-entropy of softmax(x @ w + b).

    Class-major: the parameters are one (classes, d + 1) matrix [wᵀ b], and a
    step's logits are its product with [xᵀ; 1ᵀ], so the bias rides the
    product. The class sums and the gradient are BLAS products too, so no
    reduction runs over a short row. They sum in another order than the
    row-major plain loop, so the parameters differ from that loop's at float64
    rounding level. No loss is computed: a +inf or NaN logit turns its frame's
    column NaN, as it turned that loop's loss NaN, so the fit raises on a
    non-finite gradient at the same step.
    """
    n, d = x.shape
    n_classes = int(y.max()) + 1
    x1 = np.vstack([x.T, np.ones(n)])
    vec = np.zeros(n_classes * (d + 1))
    st = AdamState.zeros(vec.size)
    label_at = y * n + np.arange(n)  # flat index of (y[col], col)
    ones = np.ones(n_classes)
    logits = np.empty((n_classes, n))
    flat = logits.reshape(-1)
    col_max = np.empty(n)
    grad = np.empty(vec.size)
    for _ in range(iters):
        np.matmul(vec.reshape(n_classes, d + 1), x1, out=logits)
        np.max(logits, axis=0, out=col_max)
        logits -= col_max
        np.exp(logits, out=logits)
        logits /= ones @ logits
        flat[label_at] -= 1.0
        np.matmul(logits, x1.T, out=grad.reshape(n_classes, d + 1))
        grad /= n
        if not np.isfinite(grad).all():
            raise RuntimeError("linear probe diverged")
        vec, st = adam_step(vec, grad, st, lr)
    v = vec.reshape(n_classes, d + 1)
    return LinearProbe(weight=v[:, :d].T.copy(), bias=v[:, d].copy())


def linear_probe(
    enc: EncoderState,
    train_corpus: Corpus,
    eval_corpus: Corpus,
    noise_kinds: Sequence[str],
    snr_levels_db: Sequence[float],
    seed: int = 0,
) -> list[ProbeResult]:
    """Fit the probe on clean `train_corpus` representations, then score frame
    accuracy on `eval_corpus` for each noise kind at each SNR, kind by kind.
    The first SNR inf gives the one row of kind ``clean``; later ones are skipped.
    Rows are encoded while the fit runs; a row encoded before it ends is held
    until it does, and later rows are scored as they are encoded."""
    _check_labelled(train_corpus, eval_corpus)
    grid: list[tuple[str, float]] = []
    for kind, snr in product(noise_kinds, snr_levels_db):
        if snr == np.inf:
            if any(s == np.inf for _, s in grid):
                continue
            kind = "clean"
        grid.append((kind, float(snr)))
    results: list[ProbeResult] = []
    held: list[tuple[str, float, list[Matrix]]] = []

    def score(kind: str, snr: float, encoded) -> None:
        correct, total = _probe_counts(fit.result(), eval_corpus, encoded)
        results.append(ProbeResult(noise_kind=kind, snr_db=snr,
                                   frame_accuracy=correct / total, n_frames=total))

    with fit_linear_probe(enc, train_corpus)[0] as fit:
        for kind, snr in grid:
            encoded = _encode(enc, eval_corpus, kind, snr, seed, _TAG_PROBE_NOISE)
            if not fit.done():
                held.append((kind, snr, list(encoded)))
                continue
            for row in held:
                score(*row)
            held.clear()
            score(kind, snr, encoded)
        for row in held:
            score(*row)
    return results


def n_accuracy(results: Sequence[ProbeResult]) -> float:
    """Mean frame accuracy over the noisy (finite-SNR) conditions."""
    noisy = [r.frame_accuracy for r in results if np.isfinite(r.snr_db)]
    if not noisy:
        raise ValueError("no noisy conditions in probe results")
    return float(np.mean(noisy))


def write_probe_csv(path, results: Sequence[ProbeResult], model_tag: str = "model") -> None:
    write_csv(path, ["model_tag", "noise_kind", "snr_db", "frame_accuracy", "n_frames"],
              ([model_tag, r.noise_kind, _snr_str(r.snr_db), r.frame_accuracy, r.n_frames]
               for r in results))


def make_train_eval_hook(corpus: Corpus):
    """Periodic-eval callback for the trainer: a quick probe on clean
    representations, scored on the representations it was fitted on, the same
    probe under one fixed noisy condition, which is encoded while the probe
    fits, and the mean per-channel std of the pooled noisy representations.
    `corpus` must carry unit labels."""
    _check_labelled(corpus)

    def hook(step: int, state: EncoderState) -> EvalRow:
        fit, x, y = fit_linear_probe(state, corpus, iters=_HOOK_PROBE_ITERS)
        with fit:
            noisy = list(_encode(state, corpus, *_HOOK_CONDITION, _TAG_EVAL_NOISE))
            probe = fit.result()
        correct_n, total = _probe_counts(probe, corpus, noisy)
        pooled = np.concatenate(noisy, dtype=np.float64)
        return EvalRow(step=step, probe_acc_clean=int((probe.predict(x) == y).sum()) / total,
                       probe_acc_noisy=correct_n / total,
                       mean_channel_std=float(pooled.std(axis=0, ddof=1).mean()))

    return hook


# ----------------------------------------------------------------------
# sampled-representation statistics
# ----------------------------------------------------------------------

def mean_sampled_channel_std(
    enc: EncoderState,
    corpus: Corpus,
    noise_kinds: Sequence[str],
    snr_range_db: tuple[float, float],
    n: int = 256,
    seed: int = 0,
) -> float:
    """Mean per-channel std of student-branch frames sampled the way the
    trainer samples them: one fresh noise draw per utterance, then `n` pooled
    frames without replacement."""
    reps_list = []
    for i in range(len(corpus)):
        _, _, feats = corpus.draw_condition(i, noise_kinds, snr_range_db,
                                            derive_seed(seed, _TAG_SAMPLE_STD, i, 0),
                                            derive_seed(seed, _TAG_SAMPLE_STD, i))
        reps_list.append(forward(enc, feats, training=False)[0])
    pair = sample_frames(reps_list, reps_list, n, derive_seed(seed, _TAG_SAMPLE_STD + 1))
    return float(pair.Zp.std(axis=0, ddof=1).mean())


# ----------------------------------------------------------------------
# ablation
# ----------------------------------------------------------------------

ABLATION_CONFIGS: tuple[tuple[str, tuple[bool, bool, bool]], ...] = (
    ("lm", (False, False, False)),
    ("lm+inv", (True, False, False)),
    ("lm+inv+var", (True, True, False)),
    ("lm+inv+var+cov", (True, True, True)),
)


@dataclass
class AblationRow:
    config_tag: str
    n_accuracy_mean: float
    n_accuracy_std: float
    l_m: float
    s: float
    v: float
    c: float


@dataclass
class AblationResult:
    rows: list[AblationRow]
    students: dict[tuple[str, int], EncoderState]
    logs: dict[tuple[str, int], TrainLog]
    probe_results: dict[tuple[str, int], list[ProbeResult]]

    def write_csv(self, path) -> None:
        write_csv(path, ["config_tag", "n_accuracy_mean", "n_accuracy_std", "l_m", "s", "v", "c"],
                  ([r.config_tag, r.n_accuracy_mean, r.n_accuracy_std, r.l_m, r.s, r.v, r.c]
                   for r in self.rows))

    def format_table(self) -> str:
        header = f"{'config':<16} {'n-acc mean':>10} {'n-acc std':>10} {'l_m':>8} {'s':>8} {'v':>8} {'c':>8}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(f"{r.config_tag:<16} {r.n_accuracy_mean:>10.4f} {r.n_accuracy_std:>10.4f} "
                         f"{r.l_m:>8.4f} {r.s:>8.4f} {r.v:>8.4f} {r.c:>8.4f}")
        return "\n".join(lines)


def ablation_run(
    teacher: EncoderState,
    base_cfg: TrainConfig,
    train_corpus: Corpus,
    cb: cb_mod.Codebook,
    seeds: Sequence[int],
    eval_corpus: Corpus,
    noise_kinds: Sequence[str],
    snr_levels_db: Sequence[float],
    probe_seed: int = 0,
) -> AblationResult:
    """Train the four cumulative regularizer configurations from `teacher`
    with shared seeds and `linear_probe` each student over the grid. Rows
    appear in cumulative order; the first is the masked-prediction-only
    baseline. A seed's four students train in lockstep on one noisy batch."""
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds in {list(seeds)}")
    _check_labelled(train_corpus, eval_corpus)
    students: dict[tuple[str, int], EncoderState] = {}
    logs: dict[tuple[str, int], TrainLog] = {}
    probe_results: dict[tuple[str, int], list[ProbeResult]] = {}
    for seed in seeds:
        cfgs = [replace(base_cfg, seed=seed, use_inv=use_inv, use_var=use_var, use_cov=use_cov)
                for _, (use_inv, use_var, use_cov) in ABLATION_CONFIGS]
        trained = pretrain_noisy(teacher, train_corpus, cb, cfgs)
        for (tag, _), (student, log) in zip(ABLATION_CONFIGS, trained):
            students[(tag, seed)] = student
            logs[(tag, seed)] = log
            probe_results[(tag, seed)] = linear_probe(student, train_corpus, eval_corpus,
                                                      noise_kinds, snr_levels_db, probe_seed)
    rows = []
    for tag, _ in ABLATION_CONFIGS:
        accs_arr = np.array([n_accuracy(probe_results[(tag, seed)]) for seed in seeds])
        finals = [logs[(tag, seed)].steps[-1] for seed in seeds]
        std = float(accs_arr.std(ddof=1)) if accs_arr.size > 1 else 0.0
        rows.append(AblationRow(
            config_tag=tag,
            n_accuracy_mean=float(accs_arr.mean()),
            n_accuracy_std=std,
            l_m=float(np.mean([f.l_m for f in finals])),
            s=float(np.mean([f.s for f in finals])),
            v=float(np.mean([f.v for f in finals])),
            c=float(np.mean([f.c for f in finals])),
        ))
    return AblationResult(rows=rows, students=students, logs=logs,
                          probe_results=probe_results)


# ----------------------------------------------------------------------
# gradient-check suite
# ----------------------------------------------------------------------

def _full_model_loss_and_grad(seed: int):
    """`step_objective` on two utterances of unequal length, with fewer VIC
    samples than pooled frames, as a function of the student's parameter
    vector. That vector is float64, so the encoder computes in float64.
    Returns (loss_of, grad at vec0, vec0, encoder config)."""
    enc_cfg = EncoderConfig(feature_dim=10, model_dim=16, n_blocks=2, mlp_hidden=24,
                            k_codewords=8, mask_start_prob=0.25, mask_span=3)
    rng = np.random.default_rng(seed)
    feats = [rng.standard_normal((n, enc_cfg.feature_dim)) for n in (12, 9)]
    labels = [rng.integers(enc_cfg.k_codewords, size=len(x)) for x in feats]
    specs = [MaskSpec(np.array([1, 2, 5, 6, 9])), MaskSpec(np.array([0, 3, 4, 7]))]
    teacher = init_encoder(enc_cfg, seed + 1)
    teacher_reps = [forward(teacher, x)[0] for x in feats]
    vec0 = init_encoder(enc_cfg, seed + 2).to_vector().astype(np.float64)
    n_sample, sample_seed = 12, seed + 3

    def masked_inputs(st: EncoderState) -> list[Matrix]:
        inputs = [x.copy() for x in feats]
        for x, spec in zip(inputs, specs):
            x[spec.masked_frames] = st.params["mask_embedding"]
        return inputs

    # pick gamma above every column std of the frames sampled at vec0 so the
    # hinge is active with margin
    st0 = EncoderState.from_vector(enc_cfg, vec0)
    reps0 = [forward(st0, x)[0] for x in masked_inputs(st0)]
    zp0 = sample_frames(teacher_reps, reps0, n_sample, sample_seed).Zp
    gamma = 1.5 * float(zp0.std(axis=0, ddof=1).max()) + 0.5
    cfg = TrainConfig(vic=VicWeights(lam=5.0, mu=1.0, nu=1.0, gamma=gamma, epsilon=1e-4,
                                      alpha=0.5, n_sample=n_sample),
                      use_inv=True, use_var=True, use_cov=True)

    def objective(vec: np.ndarray):
        st = EncoderState.from_vector(enc_cfg, vec)
        return step_objective(st, masked_inputs(st), specs, labels, teacher_reps, cfg,
                              sample_seed)

    _, grad = objective(vec0)
    return (lambda vec: objective(vec)[0].l_tot), grad, vec0, enc_cfg


def gradcheck_suite(seed: int = 0, step: float = 1e-5):
    """Central-difference checks for every analytic gradient: the loss terms,
    masked prediction, softmax cross-entropy, and the full encoder under the
    combined objective. Returns [(component_name, GradCheckReport)]."""
    rng = np.random.default_rng(seed)
    out: list[tuple[str, GradCheckReport]] = []

    logits = rng.standard_normal(9)
    target = 3
    _, g = softmax_xent(logits, target)
    out.append(("softmax_xent", grad_check(
        lambda x: softmax_xent(x, target)[0], g, logits, step)))

    t, k = 6, 5
    logits2 = rng.standard_normal((t, k))
    labels = rng.integers(k, size=t)
    spec = MaskSpec(np.array([0, 2, 3, 5]))
    _, g2 = masked_prediction_loss(logits2, labels, spec)
    out.append(("masked_prediction", grad_check(
        lambda x: masked_prediction_loss(x.reshape(t, k), labels, spec)[0],
        g2.ravel(), logits2.ravel(), step)))

    z = rng.standard_normal((8, 4))
    zp = rng.standard_normal((8, 4))
    _, g3 = invariance(z, zp)
    out.append(("invariance", grad_check(
        lambda x: invariance(z, x.reshape(8, 4))[0], g3.ravel(), zp.ravel(), step)))

    zp_small = 0.1 * rng.standard_normal((8, 4))  # all columns strictly active
    _, g4 = variance(zp_small, 1.0, 1e-4)
    out.append(("variance", grad_check(
        lambda x: variance(x.reshape(8, 4), 1.0, 1e-4)[0], g4.ravel(), zp_small.ravel(), step)))

    zp_c = rng.standard_normal((8, 5))
    _, g5 = covariance(zp_c)
    out.append(("covariance", grad_check(
        lambda x: covariance(x.reshape(8, 5))[0], g5.ravel(), zp_c.ravel(), step)))

    loss_of, grad, vec0, cfg = _full_model_loss_and_grad(seed)
    coords = set(rng.choice(vec0.size, size=min(_N_MODEL_COORDS, vec0.size),
                            replace=False).tolist())
    for name, _, part in param_layout(cfg):
        if name in ("mask_embedding", "head.weight", "head.bias", "in_proj.weight"):
            coords.update(range(part.start, min(part.start + 3, part.stop)))
    out.append(("full_model_total", grad_check(loss_of, grad, vec0, step, indices=sorted(coords))))
    return out
