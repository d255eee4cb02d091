"""Objective terms for noise-robust pre-training, each returning value plus
analytic gradient, and the cross-utterance frame sampler.

Masked prediction is the negative mean log-likelihood of the target codeword
over the masked frames. The regularization triad acts on paired frame
samples Z (teacher, frozen) and Z' (student), all matrices n x d with frames
as rows:

  invariance  s = (1/n) sum_i ||z_i - z'_i||^2
  variance    v = (1/d) sum_j max(0, gamma - sqrt(Var(Z'_.j) + eps)),
              Var the unbiased (1/(n-1)) column variance
  covariance  C = (1/(n-1)) sum_i (z'_i - mean)^T (z'_i - mean),
              c = (1/d) sum_{i != j} C_ij^2   (both orderings counted)

The combination is l_vic = lambda*s + mu*v + nu*c and the total objective is
l_m + alpha*l_vic; `total_loss` is the one place that weighs the terms, for
both the value and the gradient. Variance and covariance regularize the
student branch only; no gradient ever flows to the teacher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import MaskSpec
from .numerics import Matrix, as_matrix

__all__ = [
    "VicWeights",
    "SampledPair",
    "LossBreakdown",
    "masked_prediction_loss",
    "sample_frames",
    "invariance",
    "variance",
    "covariance",
    "total_loss",
]


@dataclass(frozen=True)
class VicWeights:
    """Term weights and sampler size. Desk-scale default n_sample is 256."""

    lam: float = 5.0
    mu: float = 1.0
    nu: float = 1.0
    gamma: float = 1.0
    epsilon: float = 1e-4
    alpha: float = 1.0
    n_sample: int = 256

    def __post_init__(self):
        for key, value in (("lambda", self.lam), ("mu", self.mu), ("nu", self.nu),
                           ("gamma", self.gamma), ("alpha", self.alpha)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{key} must be finite and >= 0, got {value}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.n_sample < 2:
            raise ValueError("n_sample must be >= 2")


@dataclass
class SampledPair:
    """Teacher/student rows taken at the same `rows` of the pooled batch,
    the utterances' frames concatenated in batch order."""

    Z: Matrix
    Zp: Matrix
    rows: np.ndarray

    def __post_init__(self):
        self.Z = as_matrix(self.Z, "Z")
        self.Zp = as_matrix(self.Zp, "Zp")
        if self.Z.shape != self.Zp.shape:
            raise ValueError("Z and Zp shapes differ")
        if len(self.rows) != self.Z.shape[0]:
            raise ValueError("rows length must match sample count")


@dataclass
class LossBreakdown:
    l_m: float
    s: float
    v: float
    c: float
    l_vic: float
    l_tot: float


def masked_prediction_loss(
    logits: Matrix,
    labels,
    mask: MaskSpec,
) -> tuple[float, Matrix]:
    """Mean cross-entropy of the target codeword over masked frames.

    Gradient is (softmax - one_hot)/|M| at masked rows and zero elsewhere.
    """
    logits = as_matrix(logits, "logits")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.size != logits.shape[0]:
        raise ValueError("labels length must match logits rows")
    m = mask.masked_frames
    if m.size == 0:
        raise ValueError("empty mask: resample before computing the loss")
    sub = logits[m]
    shifted = sub - sub.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    targets = labels[m]
    loss = float(np.mean(logsumexp - shifted[np.arange(m.size), targets]))
    probs = np.exp(shifted - logsumexp[:, None])
    probs[np.arange(m.size), targets] -= 1.0
    grad = np.zeros_like(logits)
    grad[m] = probs / m.size
    return loss, grad


def sample_frames(
    teacher_reps: Sequence[Matrix],
    student_reps: Sequence[Matrix],
    n: int,
    seed: int,
) -> SampledPair:
    """Sample `n` rows uniformly without replacement from the pool of every
    frame of the batch, masked or not; the same rows index both branches.

    If the pool holds fewer than `n` frames, every pooled frame is used once.
    """
    if len(teacher_reps) != len(student_reps):
        raise ValueError("teacher and student batches differ in length")
    for u, (tr, sr) in enumerate(zip(teacher_reps, student_reps)):
        if tr.shape != sr.shape:
            raise ValueError(f"utterance {u}: teacher/student shapes differ")
    n_pool = sum(tr.shape[0] for tr in teacher_reps)
    if n_pool == 0:
        raise ValueError("empty frame pool")
    rows = np.random.default_rng(seed).choice(n_pool, size=min(n, n_pool), replace=False)
    return SampledPair(Z=np.concatenate(teacher_reps)[rows],
                       Zp=np.concatenate(student_reps)[rows], rows=rows)


def invariance(Z, Zp) -> tuple[float, Matrix]:
    """Mean squared row distance between the branches; gradient w.r.t. the
    student only (the teacher is frozen)."""
    Z = as_matrix(Z, "Z")
    Zp = as_matrix(Zp, "Zp")
    if Z.shape != Zp.shape:
        raise ValueError("Z and Zp shapes differ")
    n = Z.shape[0]
    diff = Zp - Z
    s = float((diff * diff).sum() / n)
    return s, (2.0 / n) * diff


def variance(Zp, gamma: float = 1.0, epsilon: float = 1e-4) -> tuple[float, Matrix]:
    """Hinge on per-channel std: mean_j max(0, gamma - sqrt(Var_j + eps)).

    Var is the unbiased column variance. Gradient flows only through columns
    strictly below the threshold; the subgradient at the kink is zero.
    """
    Zp = as_matrix(Zp, "Zp")
    n, d = Zp.shape
    if n < 2:
        raise ValueError("variance needs n >= 2 samples")
    dev = Zp - Zp.mean(axis=0, keepdims=True)
    var = (dev * dev).sum(axis=0) / (n - 1)
    std = np.sqrt(var + epsilon)
    v = float(np.maximum(0.0, gamma - std).mean())
    active = std < gamma
    grad = np.zeros_like(Zp)
    if active.any():
        grad[:, active] = -dev[:, active] / (d * (n - 1) * std[active])
    return v, grad


def covariance(Zp) -> tuple[float, Matrix]:
    """Squared off-diagonal energy of the unbiased covariance of Z',
    (1/d) * sum over both orderings, with the exact gradient through the
    centering."""
    Zp = as_matrix(Zp, "Zp")
    n, d = Zp.shape
    if n < 2:
        raise ValueError("covariance needs n >= 2 samples")
    dev = Zp - Zp.mean(axis=0, keepdims=True)
    cov = dev.T @ dev / (n - 1)
    off = cov - np.diag(np.diag(cov))
    c = float((off * off).sum() / d)
    g_cov = 2.0 * off / d
    g_dev = 2.0 * dev @ g_cov / (n - 1)
    grad = g_dev - g_dev.mean(axis=0, keepdims=True)
    return c, grad


def total_loss(
    l_m: float,
    pair: Optional[SampledPair],
    w: VicWeights,
    use_inv: bool,
    use_var: bool,
    use_cov: bool,
) -> tuple[LossBreakdown, Optional[Matrix]]:
    """The objective l_tot = l_m + alpha*(lambda*s + mu*v + nu*c) and its
    gradient with respect to ``pair.Zp``.

    A disabled term, and every term when `pair` is None (no teacher), is
    exactly 0.0 and adds no gradient; with no pair the gradient is None. The
    gradient starts from zeros, adds lambda*g_s, mu*g_v, nu*g_c in that
    order, and is then scaled by alpha.
    """
    s = v = c = 0.0
    grad = None
    if pair is not None:
        grad = np.zeros_like(pair.Zp)
        if use_inv:
            s, g = invariance(pair.Z, pair.Zp)
            grad += w.lam * g
        if use_var:
            v, g = variance(pair.Zp, w.gamma, w.epsilon)
            grad += w.mu * g
        if use_cov:
            c, g = covariance(pair.Zp)
            grad += w.nu * g
        grad = w.alpha * grad
    l_vic = w.lam * s + w.mu * v + w.nu * c
    return LossBreakdown(l_m=float(l_m), s=s, v=v, c=c, l_vic=float(l_vic),
                         l_tot=float(l_m + w.alpha * l_vic)), grad
