"""Tiny pre-norm transformer encoder with span masking, a codeword prediction
head, and exact hand-derived backward passes.

An encoder state is one read-only vector packed in the deterministic order of
:func:`param_layout`, and its named parameters are views of it; the optimizer
takes the vector and a checkpoint writes the views. The backward pass accepts
simultaneous upstream gradients from the prediction head (``grad_logits``) and
from regularizers acting on the final representations (``grad_reps``);
backprop is linear in its upstream, so the two paths are additive.

Masking replaces whole rows of a frames matrix with a learned embedding.
``forward`` takes the already-substituted frames matrix plus the mask; it
only needs the masked row indices so the input gradient of those rows can be
routed into the mask-embedding gradient.

``forward``, ``predict_codewords`` and ``backward`` compute in the dtype of
the parameters they are given: ``PARAM_DTYPE`` (float32) for every encoder
that ``init_encoder`` builds or a checkpoint holds, and float64 in the
gradient checks, which cast the parameter vector to it.

At this model's width (rows of a few dozen entries) a numpy reduction costs
more than the arithmetic it reduces, so every sum the encoder takes is one
BLAS product with a cached ones vector (:func:`_row_sums`,
:func:`_col_sums`): the layer-norm statistics, the softmax denominator, the
bias gradients and the row dots of the backward pass. Their float32 results
differ from numpy's pairwise sums at rounding level. Both passes also work
in place on the arrays they have just allocated, and never write into their
inputs, the parameters or the cache.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import Matrix, as_matrix

__all__ = [
    "EncoderConfig",
    "EncoderState",
    "MaskSpec",
    "TrainingDivergedError",
    "param_layout",
    "init_encoder",
    "positional_encoding",
    "sample_mask",
    "apply_mask",
    "forward",
    "predict_codewords",
    "backward",
]

LN_EPS = 1e-5
PARAM_DTYPE = np.float32  # the encoder trains, saves and loads in this dtype


class TrainingDivergedError(RuntimeError):
    """Raised when activations, losses, or gradients go non-finite."""


@dataclass(frozen=True)
class EncoderConfig:
    feature_dim: int = 40
    model_dim: int = 64
    n_blocks: int = 2
    mlp_hidden: int = 128
    k_codewords: int = 16
    mask_start_prob: float = 0.08
    mask_span: int = 10

    def __post_init__(self):
        for name, low in (("model_dim", 2), ("n_blocks", 1), ("mlp_hidden", 1), ("mask_span", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"invalid encoder config: {name} must be >= {low}")
        if not 0.0 <= self.mask_start_prob <= 1.0:
            raise ValueError("mask_start_prob must be in [0, 1]")


@functools.lru_cache(maxsize=None)
def param_layout(cfg: EncoderConfig) -> tuple[tuple[str, tuple[int, ...], slice], ...]:
    """Each parameter's (name, shape, slice of the packed vector), in the
    deterministic order that states, gradients and checkpoints follow; one
    table per config."""
    f, d, h, k = cfg.feature_dim, cfg.model_dim, cfg.mlp_hidden, cfg.k_codewords
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("in_proj.weight", (f, d)),
        ("in_proj.bias", (d,)),
    ]
    for b in range(cfg.n_blocks):
        p = f"block{b}."
        # Attention maps are bias-free: a key bias shifts every score in a row
        # by the same amount, which row softmax cancels exactly, leaving a
        # parameter with identically zero gradient.
        shapes += [
            (p + "ln1.gain", (d,)),
            (p + "ln1.bias", (d,)),
            (p + "attn.wq", (d, d)),
            (p + "attn.wk", (d, d)),
            (p + "attn.wv", (d, d)),
            (p + "attn.wo", (d, d)),
            (p + "ln2.gain", (d,)),
            (p + "ln2.bias", (d,)),
            (p + "mlp.w1", (d, h)),
            (p + "mlp.b1", (h,)),
            (p + "mlp.w2", (h, d)),
            (p + "mlp.b2", (d,)),
        ]
    shapes += [
        ("mask_embedding", (f,)),
        ("head.weight", (d, k)),
        ("head.bias", (k,)),
    ]
    layout, offset = [], 0
    for name, shape in shapes:
        layout.append((name, shape, slice(offset, offset + math.prod(shape))))
        offset += math.prod(shape)
    return tuple(layout)


@dataclass(frozen=True, eq=False)
class EncoderState:
    """An encoder's parameters: `vector`, packed in `param_layout` order,
    which the state makes read-only, and `params`, a view of each parameter
    by name. The caller gives `vector` up; `from_vector` copies instead."""

    config: EncoderConfig
    vector: np.ndarray

    def __post_init__(self):
        n = param_layout(self.config)[-1][2].stop
        if self.vector.shape != (n,):
            raise ValueError(f"vector shape {self.vector.shape}, expected ({n},)")
        self.vector.setflags(write=False)

    @functools.cached_property
    def params(self) -> dict[str, np.ndarray]:
        return {name: self.vector[part].reshape(shape)
                for name, shape, part in param_layout(self.config)}

    def n_params(self) -> int:
        return self.vector.size

    def to_vector(self) -> np.ndarray:
        return self.vector

    @classmethod
    def from_vector(cls, cfg: EncoderConfig, vec: np.ndarray) -> "EncoderState":
        """The state that holds a copy of `vec`, in `vec`'s dtype."""
        return cls(cfg, np.array(vec))


def init_encoder(cfg: EncoderConfig, seed: int) -> EncoderState:
    """Scaled-uniform init: weights U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
    layer-norm gains 1, all biases 0. The prediction head uses a 10x smaller
    bound so initial logits are near zero and the masked loss starts at ln k.
    Deterministic given `seed`: the draws are float64, made parameter by
    parameter in layout order, and rounded to ``PARAM_DTYPE``."""
    rng = np.random.default_rng(seed)
    vec = np.zeros(param_layout(cfg)[-1][2].stop, PARAM_DTYPE)
    for name, shape, part in param_layout(cfg):
        if name.endswith(".gain"):
            vec[part] = 1.0
        elif len(shape) == 2 or name == "mask_embedding":
            bound = 1.0 / math.sqrt(shape[0])
            if name == "head.weight":
                bound *= 0.1
            vec[part] = rng.uniform(-bound, bound, size=vec[part].size)
    return EncoderState(cfg, vec)


def _sinusoid_table(n_frames: int, dim: int) -> Matrix:
    pos = np.arange(n_frames)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    pe = np.zeros((n_frames, dim))
    pe[:, 0::2] = np.sin(angle[:, 0::2])
    pe[:, 1::2] = np.cos(angle[:, 1::2])
    return pe


# (dim, dtype) -> read-only table, rebuilt when a longer sequence than it holds arrives
_positional_tables: dict[tuple[int, np.dtype], Matrix] = {}


def positional_encoding(n_frames: int, dim: int, dtype) -> Matrix:
    """Fixed sinusoidal position table, shape (n_frames, dim), read-only,
    computed in float64 and cast once to `dtype`.

    Entry (t, i) depends on t and i alone, so the prefix of a longer table
    is bit-identical to a table built at ``n_frames``.
    """
    key = (dim, np.dtype(dtype))
    table = _positional_tables.get(key)
    if table is None or table.shape[0] < n_frames:
        table = _sinusoid_table(n_frames, dim).astype(dtype)
        table.setflags(write=False)
        _positional_tables[key] = table
    return table[:n_frames]


# ----------------------------------------------------------------------
# masking
# ----------------------------------------------------------------------

@dataclass
class MaskSpec:
    """Sorted frame indices selected for masking (the set M)."""

    masked_frames: np.ndarray

    def __post_init__(self):
        self.masked_frames = np.unique(np.asarray(self.masked_frames, dtype=np.int64))

    def __len__(self) -> int:
        return self.masked_frames.size


def sample_mask(n_frames: int, cfg: EncoderConfig, seed: int) -> MaskSpec:
    """Each frame starts a span with `mask_start_prob`; spans of `mask_span`
    frames (truncated at the end) are unioned into M."""
    rng = np.random.default_rng(seed)
    starts = np.flatnonzero(rng.random(n_frames) < cfg.mask_start_prob)
    masked = (starts[:, None] + np.arange(cfg.mask_span)).ravel()
    return MaskSpec(masked[masked < n_frames])


def apply_mask(
    frames: Matrix,
    cfg: EncoderConfig,
    seed: int,
    mask_embedding: np.ndarray,
) -> tuple[Matrix, MaskSpec]:
    """A copy of `frames` in the mask embedding's dtype with the masked rows
    replaced by the embedding, and the mask."""
    spec = sample_mask(frames.shape[0], cfg, seed)
    masked = np.array(frames, dtype=mask_embedding.dtype)
    masked[spec.masked_frames] = mask_embedding
    return masked, spec


# ----------------------------------------------------------------------
# forward / backward
# ----------------------------------------------------------------------

# dtype -> read-only ones vector, rebuilt when a longer sum than it holds arrives
_ones_vectors: dict[np.dtype, np.ndarray] = {}


def _ones(n: int, dtype) -> np.ndarray:
    ones = _ones_vectors.get(np.dtype(dtype))
    if ones is None or ones.size < n:
        ones = np.ones(n, dtype)
        ones.setflags(write=False)
        _ones_vectors[ones.dtype] = ones
    return ones[:n]


def _row_sums(x: Matrix) -> Matrix:
    """The sum of each row of `x`, shape (rows, 1), as one BLAS product."""
    return (x @ _ones(x.shape[1], x.dtype))[:, None]


def _col_sums(x: Matrix) -> np.ndarray:
    """The sum of each column of `x`, shape (cols,), as one BLAS product."""
    return _ones(x.shape[0], x.dtype) @ x


def _layer_norm(x: Matrix, gain: np.ndarray, bias: np.ndarray):
    d = x.shape[1]
    xhat = x - _row_sums(x) / d
    inv_std = 1.0 / np.sqrt(_row_sums(xhat * xhat) / d + LN_EPS)
    xhat *= inv_std
    out = xhat * gain
    out += bias
    return out, xhat, inv_std


def _layer_norm_backward(g_out: Matrix, xhat: Matrix, inv_std: Matrix, gain: np.ndarray):
    """The gradients of `_layer_norm`'s input, gain and bias; the input's is
    written over `g_out`."""
    d = xhat.shape[1]
    prod = g_out * xhat
    g_gain = _col_sums(prod)
    g_bias = _col_sums(g_out)
    g_x = g_out
    g_x *= gain  # the gradient at xhat
    np.multiply(g_x, xhat, out=prod)
    np.multiply(xhat, _row_sums(prod), out=prod)
    prod /= d
    g_x -= _row_sums(g_x) / d
    g_x -= prod
    g_x *= inv_std
    return g_x, g_gain, g_bias


def _softmax_rows(x: Matrix) -> Matrix:
    """Row softmax of `x`, written over `x`."""
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    x /= _row_sums(x)
    return x


def forward(
    state: EncoderState,
    x: Matrix,
    training: bool = False,
    mask: Optional[MaskSpec] = None,
) -> tuple[Matrix, dict]:
    """Input projection of the T x F frames `x` + positional encoding, then
    pre-norm attention/MLP blocks with residuals. Returns (reps, cache); the
    cache holds what `backward` reads. The frames are cast once to the
    parameters' dtype, and every result has that dtype.

    Teacher mode is simply ``training=False`` with no mask: there is no
    dropout anywhere, so `training` changes nothing in the result. `mask`
    marks rows whose content is the mask embedding, which routes their input
    gradient into the embedding's gradient.
    """
    cfg = state.config
    p = state.params
    dtype = p["in_proj.weight"].dtype
    x_in = as_matrix(x, "frames", dtype)
    if x_in.shape[1] != cfg.feature_dim:
        raise ValueError(f"feature dim {x_in.shape[1]} != config {cfg.feature_dim}")
    scale = 1.0 / math.sqrt(cfg.model_dim)

    x = x_in @ p["in_proj.weight"]
    x += p["in_proj.bias"]
    x += positional_encoding(x_in.shape[0], cfg.model_dim, dtype)
    blocks = []
    for b in range(cfg.n_blocks):
        pre = f"block{b}."
        a_in, xhat1, inv_std1 = _layer_norm(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        q = a_in @ p[pre + "attn.wq"]
        k = a_in @ p[pre + "attn.wk"]
        v = a_in @ p[pre + "attn.wv"]
        scores = q @ k.T
        scores *= scale
        attn = _softmax_rows(scores)
        att_out = attn @ v
        x_mid = att_out @ p[pre + "attn.wo"]
        x_mid += x
        m_in, xhat2, inv_std2 = _layer_norm(x_mid, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        h_act = m_in @ p[pre + "mlp.w1"]
        h_act += p[pre + "mlp.b1"]
        np.tanh(h_act, out=h_act)
        x = x_mid
        x += h_act @ p[pre + "mlp.w2"]
        x += p[pre + "mlp.b2"]
        blocks.append(dict(xhat1=xhat1, inv_std1=inv_std1, a_in=a_in, q=q, k=k, v=v,
                           attn=attn, att_out=att_out, xhat2=xhat2, inv_std2=inv_std2,
                           m_in=m_in, h_act=h_act))
    if not np.isfinite(x).all():
        raise TrainingDivergedError("non-finite activations in encoder forward")
    cache = dict(state=state, x_in=x_in, blocks=blocks, reps=x,
                 mask=None if mask is None else mask.masked_frames)
    return x, cache


def predict_codewords(state: EncoderState, reps: Matrix) -> Matrix:
    """Affine map from representations to codeword logits, shape (T, k)."""
    if reps.shape[1] != state.config.model_dim:
        raise ValueError("representation dim mismatch")
    return reps @ state.params["head.weight"] + state.params["head.bias"]


def backward(
    cache: dict,
    grad_reps: Optional[Matrix] = None,
    grad_logits: Optional[Matrix] = None,
) -> np.ndarray:
    """Exact analytic parameter gradients, packed in layout order.

    `grad_reps` is the upstream gradient at the final representations (the
    regularizer path); `grad_logits` is the upstream at the head output (the
    masked-prediction path). Either may be None. Both are cast once to the
    parameters' dtype, which is the dtype of the result.
    """
    state: EncoderState = cache["state"]
    cfg = state.config
    p = state.params
    reps = cache["reps"]
    scale = 1.0 / math.sqrt(cfg.model_dim)
    grads: dict[str, np.ndarray] = {}

    g = np.zeros_like(reps)
    if grad_reps is not None:
        if grad_reps.shape != reps.shape:
            raise ValueError("grad_reps shape mismatch")
        g += grad_reps.astype(reps.dtype, copy=False)
    if grad_logits is not None:
        if grad_logits.shape != (reps.shape[0], cfg.k_codewords):
            raise ValueError("grad_logits shape mismatch")
        grad_logits = grad_logits.astype(reps.dtype, copy=False)
        grads["head.weight"] = reps.T @ grad_logits
        grads["head.bias"] = _col_sums(grad_logits)
        g += grad_logits @ p["head.weight"].T

    for b in reversed(range(cfg.n_blocks)):
        pre = f"block{b}."
        c = cache["blocks"][b]
        # MLP sub-block: x_out = x_mid + tanh(m_in W1 + b1) W2 + b2
        g_hpre = g @ p[pre + "mlp.w2"].T
        grads[pre + "mlp.w2"] = c["h_act"].T @ g
        grads[pre + "mlp.b2"] = _col_sums(g)
        dtanh = np.square(c["h_act"])
        np.subtract(1.0, dtanh, out=dtanh)
        g_hpre *= dtanh
        grads[pre + "mlp.w1"] = c["m_in"].T @ g_hpre
        grads[pre + "mlp.b1"] = _col_sums(g_hpre)
        g_xmid, grads[pre + "ln2.gain"], grads[pre + "ln2.bias"] = _layer_norm_backward(
            g_hpre @ p[pre + "mlp.w1"].T, c["xhat2"], c["inv_std2"], p[pre + "ln2.gain"])
        g_xmid += g
        # attention sub-block: x_mid = x + (softmax(q k^T scale) v) Wo
        grads[pre + "attn.wo"] = c["att_out"].T @ g_xmid
        g_attout = g_xmid @ p[pre + "attn.wo"].T
        g_scores = g_attout @ c["v"].T
        g_v = c["attn"].T @ g_attout
        g_scores -= _row_sums(g_scores * c["attn"])
        g_scores *= c["attn"]
        g_q = g_scores @ c["k"]
        g_q *= scale
        g_k = g_scores.T @ c["q"]
        g_k *= scale
        grads[pre + "attn.wq"] = c["a_in"].T @ g_q
        grads[pre + "attn.wk"] = c["a_in"].T @ g_k
        grads[pre + "attn.wv"] = c["a_in"].T @ g_v
        g_ain = g_q @ p[pre + "attn.wq"].T
        g_ain += g_k @ p[pre + "attn.wk"].T
        g_ain += g_v @ p[pre + "attn.wv"].T
        g, grads[pre + "ln1.gain"], grads[pre + "ln1.bias"] = _layer_norm_backward(
            g_ain, c["xhat1"], c["inv_std1"], p[pre + "ln1.gain"])
        g += g_xmid

    grads["in_proj.weight"] = cache["x_in"].T @ g
    grads["in_proj.bias"] = _col_sums(g)
    if cache["mask"] is not None and cache["mask"].size:
        g_input = g @ p["in_proj.weight"].T
        grads["mask_embedding"] = _col_sums(g_input[cache["mask"]])
    # A path not taken (no logits, no mask) has zero gradient, and one
    # widened entry widens the result.
    flat = np.zeros(state.n_params(), np.result_type(*grads.values()))
    for name, _, part in param_layout(cfg):
        if name in grads:
            flat[part] = grads[name].ravel()
    return flat
