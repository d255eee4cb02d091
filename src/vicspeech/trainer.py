"""Adam optimizer and the two-stage training pipeline.

Stage 0 pre-trains the encoder on clean features with masked codeword
prediction only, producing the teacher. Stage 1 starts the student from a
copy of the teacher and trains it on noise-augmented inputs: the frozen
teacher runs on clean, unmasked features; the student sees masked noisy
features; the masked-prediction loss meets the regularization terms computed
on frames sampled at shared rows of the pooled batch.

Every stochastic choice (epoch order, mask, noise draw, frame sampling) is a
pure function of (config seed, purpose tag, step, slot), so runs are
bit-reproducible and disabling the regularizer leaves the masked-prediction
path untouched.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import codebook as cb_mod
from .losses import LossBreakdown, VicWeights, masked_prediction_loss, sample_frames, total_loss
# not called here: kept so that the perfbench benchmark can rebind them in this module
from .losses import covariance, invariance, variance  # noqa: F401
from .model import EncoderConfig, EncoderState, MaskSpec, TrainingDivergedError, apply_mask, \
    backward, forward, init_encoder, predict_codewords
from .numerics import Matrix
from .signal import NOISE_KINDS, SNR_LIMIT_DB, Utterance, check_utterance, extract_features, \
    frame_labels, load_corpus, mix_at_snr, synth_noise

__all__ = [
    "TrainConfig",
    "AdamState",
    "TrainLog",
    "Corpus",
    "BatchItem",
    "adam_step",
    "derive_seed",
    "write_csv",
    "batch_indices",
    "make_batch",
    "step_objective",
    "pretrain_clean",
    "pretrain_noisy",
]

# purpose tags for stateless seed derivation
_TAG_EPOCH = 1
_TAG_MASK = 2
_TAG_NOISE = 3
_TAG_SAMPLE = 4


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts (order-sensitive)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 3000
    batch_utterances: int = 8
    learning_rate: float = 5e-4
    snr_range_db: tuple[float, float] = (5.0, 10.0)
    noise_kinds: tuple[str, ...] = NOISE_KINDS
    vic: VicWeights = field(default_factory=VicWeights)
    use_inv: bool = True
    use_var: bool = True
    use_cov: bool = True
    seed: int = 1
    eval_interval: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_utterances < 1:
            raise ValueError("batch_utterances must be >= 1")
        # zero is allowed: it holds the parameters where they start
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not all(abs(snr) <= SNR_LIMIT_DB for snr in self.snr_range_db):
            raise ValueError(f"snr range (snr_low, snr_high) must lie in "
                             f"[-{SNR_LIMIT_DB:g}, {SNR_LIMIT_DB:g}] dB, got {self.snr_range_db}")
        if self.snr_range_db[0] > self.snr_range_db[1]:
            raise ValueError(f"snr_low must be <= snr_high, got {self.snr_range_db}")
        kinds = self.noise_kinds
        if not kinds or not set(kinds) <= set(NOISE_KINDS) or len(set(kinds)) != len(kinds):
            raise ValueError(f"noise_kinds must be a nonempty subset of {NOISE_KINDS} "
                             f"with no entry repeated, got {kinds}")

    @property
    def vic_active(self) -> bool:
        return self.use_inv or self.use_var or self.use_cov


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


_ADAM_B1 = 0.9
_ADAM_B2 = 0.98
_ADAM_EPS = 1e-8


def adam_step(params: np.ndarray, grads: np.ndarray, st: AdamState,
              lr: float) -> tuple[np.ndarray, AdamState]:
    """Standard bias-corrected Adam update with b1 = 0.9, b2 = 0.98 and
    eps = 1e-8; returns new arrays. The moments and the update are float64;
    the new parameters are rounded to `params`' dtype, with no float64
    master copy, and may overflow it to inf."""
    if params.shape != grads.shape or params.shape != st.m.shape:
        raise ValueError("parameter/gradient/state lengths misaligned")
    if not np.isfinite(grads).all():
        raise TrainingDivergedError("non-finite gradients")
    t = st.t + 1
    m = _ADAM_B1 * st.m + (1.0 - _ADAM_B1) * grads
    v = _ADAM_B2 * st.v + (1.0 - _ADAM_B2) * grads * grads
    m_hat = m / (1.0 - _ADAM_B1**t)
    v_hat = v / (1.0 - _ADAM_B2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    with np.errstate(over="ignore"):
        new_params = new_params.astype(params.dtype, copy=False)
    return new_params, AdamState(m=m, v=v, t=t)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write `header` and `rows` to `path` as CSV with "\n" line ends; a float
    cell is written as ``repr(float(x))``, which reads back bit for bit."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row]
                    for row in rows)


@dataclass
class EvalRow:
    step: int
    probe_acc_clean: float
    probe_acc_noisy: float
    mean_channel_std: float


@dataclass
class TrainLog:
    steps: list[LossBreakdown] = field(default_factory=list)
    eval_rows: list[EvalRow] = field(default_factory=list)

    def write_loss_csv(self, path) -> None:
        write_csv(path, ["step", "l_m", "s", "v", "c", "l_vic", "l_tot"],
                  ([i, b.l_m, b.s, b.v, b.c, b.l_vic, b.l_tot] for i, b in enumerate(self.steps)))

    def write_eval_csv(self, path) -> None:
        write_csv(path, ["step", "probe_acc_clean", "probe_acc_noisy", "mean_channel_std"],
                  ([r.step, r.probe_acc_clean, r.probe_acc_noisy, r.mean_channel_std]
                   for r in self.eval_rows))


# ----------------------------------------------------------------------
# corpus cache and batching
# ----------------------------------------------------------------------

class Corpus:
    """In-memory corpus of utterances that pass `signal.check_utterance`, with
    cached clean features; features and frame labels use `signal`'s one
    framing."""

    def __init__(self, utterances: list[Utterance]):
        if not utterances:
            raise ValueError("empty corpus")
        for utt in utterances:
            check_utterance(utt, f"utterance {utt.id}")
        self.utterances = utterances
        self._clean: dict[int, Matrix] = {}
        self._last_batch: Optional[tuple[tuple, tuple["BatchItem", ...]]] = None  # see make_batch

    @classmethod
    def load(cls, manifest_path) -> "Corpus":
        return cls(load_corpus(manifest_path))

    def __len__(self) -> int:
        return len(self.utterances)

    def clean_features(self, i: int) -> Matrix:
        """Features of clean utterance `i`, computed once and read-only."""
        if i not in self._clean:
            self._clean[i] = _read_only(extract_features(self.utterances[i].wave))
        return self._clean[i]

    def frame_labels(self, i: int) -> np.ndarray:
        """Utterance `i`'s `signal.frame_labels`, which no noise condition changes."""
        return frame_labels(self.utterances[i])

    def condition_features(self, i: int, kind: str, snr_db: float,
                           noise_seed: int) -> Matrix:
        """Features of utterance `i` mixed with the `kind` noise drawn from
        `noise_seed` at `snr_db`; SNR +inf returns the cached clean features."""
        if np.isinf(snr_db) and snr_db > 0:
            return self.clean_features(i)
        utt = self.utterances[i]
        noise = synth_noise(kind, noise_seed, len(utt.wave))
        mixed = mix_at_snr(utt.wave, noise, snr_db)
        return extract_features(mixed.mixed)

    def draw_condition(self, i: int, noise_kinds: Sequence[str],
                       snr_range_db: tuple[float, float], draw_seed: int,
                       noise_seed: int) -> tuple[str, float, Matrix]:
        """A noise kind from `noise_kinds` and an SNR uniform in
        `snr_range_db`, both drawn from `draw_seed`, and the features of
        utterance `i` under them with the noise drawn from `noise_seed`."""
        rng = np.random.default_rng(draw_seed)
        kind = str(noise_kinds[int(rng.integers(len(noise_kinds)))])
        snr_db = float(rng.uniform(*snr_range_db))
        return kind, snr_db, self.condition_features(i, kind, snr_db, noise_seed)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BatchItem:
    """One utterance of a batch; its feature matrices are read-only, because
    `make_batch` hands the same items to every run that asks for them."""

    utt_index: int
    clean: Matrix
    noisy: Optional[Matrix] = None
    noise_kind: str = ""
    snr_db: float = float("inf")


def batch_indices(n_utterances: int, batch_utterances: int, step: int, seed: int) -> list[int]:
    """Utterance indices for one step of a shuffled-epoch schedule.

    Each epoch is an independent permutation derived from (seed, epoch); the
    batch walks the concatenated permutations, so epochs are bijections over
    the corpus.
    """
    out = []
    perms: dict[int, np.ndarray] = {}
    start = step * batch_utterances
    for j in range(batch_utterances):
        epoch, offset = divmod(start + j, n_utterances)
        if epoch not in perms:
            rng = np.random.default_rng(derive_seed(seed, _TAG_EPOCH, epoch))
            perms[epoch] = rng.permutation(n_utterances)
        out.append(int(perms[epoch][offset]))
    return out


def make_batch(
    corpus: Corpus,
    batch_utterances: int,
    step: int,
    seed: int,
    noise_kinds: Optional[Sequence[str]] = None,
    snr_range_db: Optional[tuple[float, float]] = None,
) -> tuple[BatchItem, ...]:
    """Assemble one batch; with `noise_kinds` given, each utterance gets a
    fresh noise draw at an SNR uniform in `snr_range_db`. Clean and noisy
    features share frame counts by construction.

    The batch is a pure function of the arguments. `corpus` keeps the last
    batch it built, so a call that repeats the previous call's arguments (the
    next run of a lockstep, see `pretrain_noisy`) returns the same items
    without building them again."""
    key = (batch_utterances, step, seed, tuple(noise_kinds) if noise_kinds else None,
           None if snr_range_db is None else tuple(snr_range_db))
    if corpus._last_batch is not None and corpus._last_batch[0] == key:
        return corpus._last_batch[1]
    items = []
    for j, utt_index in enumerate(batch_indices(len(corpus), batch_utterances, step, seed)):
        clean = corpus.clean_features(utt_index)
        if not noise_kinds:
            items.append(BatchItem(utt_index=utt_index, clean=clean))
            continue
        kind, snr_db, noisy = corpus.draw_condition(
            utt_index, noise_kinds, snr_range_db, derive_seed(seed, _TAG_NOISE, step, j, 0),
            derive_seed(seed, _TAG_NOISE, step, j, 1))
        items.append(BatchItem(utt_index=utt_index, clean=clean, noisy=_read_only(noisy),
                               noise_kind=kind, snr_db=snr_db))
    corpus._last_batch = (key, tuple(items))
    return corpus._last_batch[1]


def _nonempty_mask(frames: np.ndarray, enc_cfg: EncoderConfig, seed: int, step: int,
                   slot: int, mask_embedding: np.ndarray):
    for attempt in range(10000):
        masked, spec = apply_mask(frames, enc_cfg, derive_seed(seed, _TAG_MASK, step, slot, attempt),
                                  mask_embedding)
        if len(spec):
            return masked, spec
    raise TrainingDivergedError("could not draw a nonempty mask; raise mask_start_prob")


# ----------------------------------------------------------------------
# training loops
# ----------------------------------------------------------------------

def step_objective(
    state: EncoderState,
    inputs: Sequence[np.ndarray],
    specs: Sequence[MaskSpec],
    labels: Sequence[np.ndarray],
    teacher_reps: Optional[Sequence[np.ndarray]],
    cfg: TrainConfig,
    sample_seed: int,
) -> tuple[LossBreakdown, np.ndarray]:
    """The objective of one batch and its gradient, packed in layout order.

    `inputs` are the student's masked inputs, `specs` their masks and
    `labels` their codeword targets. Masked prediction weights each
    utterance by its share of the batch's masked frames. With `teacher_reps`
    given, the enabled VIC terms act on `cfg.vic.n_sample` frames drawn from
    the pooled batch by `sample_seed`, and `losses.total_loss` weighs them and
    their gradient, which flows back to the sampled rows; with None the VIC
    terms are 0.0.
    """
    total_masked = sum(len(spec) for spec in specs)
    l_m = 0.0
    reps_list, caches, grad_logits_list = [], [], []
    for x, spec, y in zip(inputs, specs, labels):
        reps, cache = forward(state, x, training=True, mask=spec)
        loss_j, grad_logits_j = masked_prediction_loss(predict_codewords(state, reps), y, spec)
        w_j = len(spec) / total_masked
        l_m += w_j * loss_j
        reps_list.append(reps)
        caches.append(cache)
        grad_logits_list.append(grad_logits_j * w_j)

    pair = None if teacher_reps is None else \
        sample_frames(teacher_reps, reps_list, cfg.vic.n_sample, sample_seed)
    breakdown, grad_zp = total_loss(l_m, pair, cfg.vic, cfg.use_inv, cfg.use_var, cfg.use_cov)
    grad_reps_list = [None] * len(caches)
    if pair is not None:
        ends = np.cumsum([len(reps) for reps in reps_list])
        grad_pool = np.zeros((ends[-1], grad_zp.shape[1]))
        grad_pool[pair.rows] = grad_zp
        grad_reps_list = np.split(grad_pool, ends[:-1])

    grad = np.zeros(state.n_params())
    for cache, grad_reps, grad_logits in zip(caches, grad_reps_list, grad_logits_list):
        grad += backward(cache, grad_reps=grad_reps, grad_logits=grad_logits)
    return breakdown, grad


@dataclass
class _Run:
    """One configuration's training: its parameters, optimizer and log, and
    the per-utterance values that stay fixed for the whole run."""

    cfg: TrainConfig
    state: EncoderState
    teacher: Optional[EncoderState]
    adam: AdamState = field(init=False)
    log: TrainLog = field(default_factory=TrainLog)
    codewords: dict[int, np.ndarray] = field(default_factory=dict)
    teacher_reps: dict[int, np.ndarray] = field(default_factory=dict)  # teacher frozen

    def __post_init__(self):
        self.adam = AdamState.zeros(self.state.n_params())


def _train_step(run: _Run, step: int, corpus: Corpus, cb: cb_mod.Codebook,
                noisy_inputs: bool, eval_hook) -> None:
    cfg = run.cfg
    enc_cfg = run.state.config
    items = make_batch(
        corpus, cfg.batch_utterances, step, cfg.seed,
        noise_kinds=cfg.noise_kinds if noisy_inputs else None,
        snr_range_db=cfg.snr_range_db if noisy_inputs else None)

    inputs, specs, labels = [], [], []
    for j, item in enumerate(items):
        if item.utt_index not in run.codewords:
            run.codewords[item.utt_index] = cb_mod.assign(cb, item.clean)
        masked, spec = _nonempty_mask(item.noisy if noisy_inputs else item.clean,
                                      enc_cfg, cfg.seed, step, j,
                                      run.state.params["mask_embedding"])
        inputs.append(masked)
        specs.append(spec)
        labels.append(run.codewords[item.utt_index])

    teacher_reps = None
    if run.teacher is not None:
        for item in items:
            if item.utt_index not in run.teacher_reps:
                run.teacher_reps[item.utt_index], _ = forward(run.teacher, item.clean)
        teacher_reps = [run.teacher_reps[item.utt_index] for item in items]

    breakdown, grad_vec = step_objective(run.state, inputs, specs, labels, teacher_reps, cfg,
                                         derive_seed(cfg.seed, _TAG_SAMPLE, step))
    if not np.isfinite(breakdown.l_tot):
        raise TrainingDivergedError(f"loss diverged at step {step}")
    run.log.steps.append(breakdown)

    vec, run.adam = adam_step(run.state.to_vector(), grad_vec, run.adam, cfg.learning_rate)
    if not np.isfinite(vec).all():
        raise TrainingDivergedError(f"parameters overflowed {vec.dtype} at step {step}")
    run.state = EncoderState(enc_cfg, vec)

    if cfg.eval_interval and eval_hook and (step + 1) % cfg.eval_interval == 0:
        run.log.eval_rows.append(eval_hook(step, run.state))


def _train_loop(
    runs: Sequence[_Run],
    corpus: Corpus,
    cb: cb_mod.Codebook,
    noisy_inputs: bool,
    eval_hook=None,
) -> list[tuple[EncoderState, TrainLog]]:
    """Advance every run one step at a time, in lockstep. Runs share nothing
    but `corpus`, so each ends as it would alone; runs whose batch arguments
    agree get each step's batch from one `make_batch` build."""
    for step in range(max(run.cfg.steps for run in runs)):
        for run in runs:
            if step < run.cfg.steps:
                _train_step(run, step, corpus, cb, noisy_inputs, eval_hook)
    return [(run.state, run.log) for run in runs]


def pretrain_clean(
    corpus: Corpus,
    cb: cb_mod.Codebook,
    cfg: TrainConfig,
    enc_cfg: EncoderConfig,
    eval_hook=None,
) -> tuple[EncoderState, TrainLog]:
    """Stage 0: masked codeword prediction on clean features from a fresh
    initialization. Returns the teacher state and its log."""
    if enc_cfg.feature_dim != cb.feature_dim or enc_cfg.k_codewords != cb.k:
        raise ValueError("encoder config does not match codebook dimensions")
    run = _Run(cfg, init_encoder(enc_cfg, cfg.seed), teacher=None)
    return _train_loop([run], corpus, cb, noisy_inputs=False, eval_hook=eval_hook)[0]


def pretrain_noisy(
    teacher: EncoderState,
    corpus: Corpus,
    cb: cb_mod.Codebook,
    cfgs: Sequence[TrainConfig],
    eval_hook=None,
) -> list[tuple[EncoderState, TrainLog]]:
    """Stage 1: noise-robust pre-training of one student per config, each
    initialized from the frozen teacher. Returns (student, log) per config.

    Per step: the teacher runs on clean, unmasked features; each utterance is
    mixed with a fresh noise draw; the student runs on masked noisy features;
    masked prediction plus the active regularization terms backprop into the
    student only. With all ablation flags off, the teacher forward and frame
    sampling are skipped entirely and the loop reduces to the masked-
    prediction-only trainer on noisy inputs.

    The students train in lockstep, one step at a time. Each student is the
    one its config alone would give, bit for bit; configs with the same seed
    and batch settings (an ablation seed's configurations) share each step's
    noisy batch, which is built once.
    """
    if not cfgs:
        raise ValueError("need at least one config")
    if teacher.config.feature_dim != cb.feature_dim or teacher.config.k_codewords != cb.k:
        raise ValueError("teacher config does not match codebook dimensions")
    runs = [_Run(cfg, teacher, teacher=teacher if cfg.vic_active else None)
            for cfg in cfgs]
    return _train_loop(runs, corpus, cb, noisy_inputs=True, eval_hook=eval_hook)
