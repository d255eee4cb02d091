"""k-means codebook over filterbank frames: the pseudo-label targets for
masked codeword prediction.

Lloyd's algorithm with k-means++ seeding; fitting is deterministic given the
seed, and assignment ties break toward the lowest centroid index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import Matrix, as_matrix

__all__ = ["Codebook", "fit_kmeans", "assign"]


@dataclass
class Codebook:
    centroids: Matrix  # k x F
    inertia: float = 0.0
    inertia_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.centroids = as_matrix(self.centroids, "centroids")
        if self.k < 2:
            raise ValueError("codebook needs k >= 2")
        if self.inertia < 0:
            raise ValueError("inertia must be nonnegative")
        if len(np.unique(self.centroids, axis=0)) != self.k:
            raise ValueError("codebook contains duplicate centroids")

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.centroids.shape[1]


def _sq_distances(frames: Matrix, centroids: Matrix) -> Matrix:
    # ||x - c||^2 expanded; clamp tiny negatives from cancellation.
    d2 = (
        (frames * frames).sum(axis=1)[:, None]
        - 2.0 * frames @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeans_pp_init(frames: Matrix, k: int, rng: np.random.Generator) -> Matrix:
    n = frames.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _sq_distances(frames, frames[chosen[-1]][None, :]).ravel()
    for _ in range(k - 1):
        total = d2.sum()
        if total <= 0.0:
            raise ValueError("cannot seed k distinct centroids: too few distinct frames")
        nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, _sq_distances(frames, frames[nxt][None, :]).ravel())
    return frames[chosen].copy()


def fit_kmeans(frames, k: int, max_iters: int = 50, seed: int = 0) -> Codebook:
    """Lloyd's algorithm with k-means++ initialization.

    Stops when assignments are unchanged or after `max_iters`. A cluster left
    empty is re-seeded to the point farthest from its current centroid, which
    never increases the objective. `inertia_history` records the total
    squared distance after each assignment pass (nonincreasing).
    """
    frames = as_matrix(frames, "frames")
    n = frames.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} frames, got {n}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(frames, k, rng)
    prev_assign = None
    history: list[float] = []
    for _ in range(max_iters):
        d2 = _sq_distances(frames, centroids)
        labels = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), labels].sum()))
        if prev_assign is not None and np.array_equal(labels, prev_assign):
            break
        prev_assign = labels
        for j in range(k):
            members = frames[labels == j]
            if members.shape[0] == 0:
                far = int(_sq_distances(frames, centroids[j][None, :]).ravel().argmax())
                centroids[j] = frames[far]
            else:
                centroids[j] = members.mean(axis=0)
    d2 = _sq_distances(frames, centroids)
    inertia = float(d2[np.arange(n), d2.argmin(axis=1)].sum())
    return Codebook(centroids=centroids, inertia=inertia, inertia_history=history)


def assign(cb: Codebook, frames) -> np.ndarray:
    """Codeword id per row of `frames`: the nearest centroid, with ties going
    to the lowest centroid index.

    Distances are literal squared differences (not the expanded form), so
    exactly equidistant frames tie exactly and argmin resolves them low-first.
    """
    frames = as_matrix(frames, "frames")
    if frames.shape[1] != cb.feature_dim:
        raise ValueError(f"feature dim {frames.shape[1]} != codebook dim {cb.feature_dim}")
    diff = frames[:, None, :] - cb.centroids[None, :, :]
    return (diff * diff).sum(axis=2).argmin(axis=1).astype(np.int64)
