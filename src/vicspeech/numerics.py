"""Dense matrix primitives and a finite-difference gradient checker.

Matrices are row-major: frames are rows, channels are columns. The encoder
computes in its parameters' dtype (float32 in training); the losses, the
probe, the variance report and the gradient checks work in float64. Every
hand-derived backward pass in the package is validated against
:func:`grad_check` on float64 inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = ["Matrix", "GradCheckReport", "as_matrix", "softmax_xent", "grad_check"]

# A "Matrix" throughout the package is a 2-D C-contiguous floating ndarray
# with finite entries; `as_matrix` is the validating constructor.
Matrix = np.ndarray

REL_ERROR_FLOOR = 1e-12  # denominator floor, avoids 0/0 at exactly-zero gradients


def as_matrix(a, name: str = "matrix", dtype=np.float64) -> Matrix:
    """Coerce `a` to a 2-D C-contiguous array of `dtype`, rejecting bad input;
    `a` itself is returned when it already is one."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def softmax_xent(logits, target: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of softmax(`logits`) against a hard `target` index.

    Returns ``(loss, grad)`` with ``loss = -log softmax(logits)[target]`` and
    ``grad = softmax(logits) - one_hot(target)``. Max-subtraction keeps
    saturated logits from overflowing.
    """
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    if z.size < 2:
        raise ValueError("softmax_xent needs at least two logits")
    if not np.isfinite(z).all():
        raise ValueError("logits contain non-finite entries")
    if not 0 <= int(target) < z.size:
        raise ValueError(f"target {target} out of range for {z.size} classes")
    shifted = z - z.max()
    logsumexp = float(np.log(np.exp(shifted).sum()))
    loss = logsumexp - float(shifted[target])
    grad = np.exp(shifted - logsumexp)
    grad[target] -= 1.0
    return loss, grad


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_index: int
    step: float


def grad_check(
    f: Callable[[np.ndarray], float],
    analytic_grad,
    point,
    step: float = 1e-5,
    indices: Optional[Iterable[int]] = None,
) -> GradCheckReport:
    """Compare `analytic_grad` against central differences of `f` at `point`.

    Per coordinate i the numeric gradient is ``(f(x + h e_i) - f(x - h e_i)) / 2h``
    and the relative error is ``|a - n| / max(|a|, |n|, 1e-12)``, or inf where
    the analytic gradient or the central difference is not finite. `indices`
    restricts the sweep to a coordinate subset, which keeps the check cheap on
    large parameter vectors. Never raises; the report carries the verdict.
    """
    x = np.array(point, dtype=np.float64).reshape(-1)
    g = np.asarray(analytic_grad, dtype=np.float64).reshape(-1)
    if g.shape != x.shape:
        raise ValueError("analytic gradient and point shapes disagree")
    if indices is None:
        indices = range(x.size)
    worst = 0.0
    worst_index = -1
    for i in indices:
        orig = x[i]
        x[i] = orig + step
        f_plus = float(f(x))
        x[i] = orig - step
        f_minus = float(f(x))
        x[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * step)
        if np.isfinite(g[i]) and np.isfinite(numeric):
            rel = abs(g[i] - numeric) / max(abs(g[i]), abs(numeric), REL_ERROR_FLOOR)
        else:  # a NaN would never compare greater than `worst`
            rel = np.inf
        if rel > worst:
            worst = rel
            worst_index = int(i)
    return GradCheckReport(max_rel_error=float(worst), worst_index=worst_index, step=float(step))
