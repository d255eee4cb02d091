"""Tiny pre-norm transformer encoder with span masking, a codeword prediction
head, and exact hand-derived backward passes.

The parameter set has a deterministic named layout (see :func:`param_layout`)
so states flatten to vectors for the optimizer and serialize stably. The
backward pass accepts simultaneous upstream gradients from the prediction
head (``grad_logits``) and from regularizers acting on the final
representations (``grad_reps``); backprop is linear in its upstream, so the
two paths are additive.

Masking replaces whole feature rows with a learned embedding. ``forward``
takes the already-substituted features plus the mask; it only needs the
masked row indices so the input gradient of those rows can be routed into
the mask-embedding gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .numerics import Matrix, as_matrix
from .signal import FeatureSequence

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
        for name, low in (("model_dim", 2), ("n_blocks", 1), ("mask_span", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"invalid encoder config: {name} must be >= {low}")
        if not 0.0 <= self.mask_start_prob <= 1.0:
            raise ValueError("mask_start_prob must be in [0, 1]")


def param_layout(cfg: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Deterministic (name, shape) list; vector packing and checkpoints follow it."""
    f, d, h, k = cfg.feature_dim, cfg.model_dim, cfg.mlp_hidden, cfg.k_codewords
    layout: list[tuple[str, tuple[int, ...]]] = [
        ("in_proj.weight", (f, d)),
        ("in_proj.bias", (d,)),
    ]
    for b in range(cfg.n_blocks):
        p = f"block{b}."
        # Attention maps are bias-free: a key bias shifts every score in a row
        # by the same amount, which row softmax cancels exactly, leaving a
        # parameter with identically zero gradient.
        layout += [
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
    layout += [
        ("mask_embedding", (f,)),
        ("head.weight", (d, k)),
        ("head.bias", (k,)),
    ]
    return layout


@dataclass
class EncoderState:
    config: EncoderConfig
    params: dict[str, np.ndarray]

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.params[name].ravel() for name, _ in param_layout(self.config)])

    @classmethod
    def from_vector(cls, cfg: EncoderConfig, vec: np.ndarray) -> "EncoderState":
        vec = np.asarray(vec, dtype=np.float64)
        params = {}
        offset = 0
        for name, shape in param_layout(cfg):
            size = int(np.prod(shape))
            params[name] = vec[offset : offset + size].reshape(shape).copy()
            offset += size
        if offset != vec.size:
            raise ValueError(f"vector length {vec.size} != parameter count {offset}")
        return cls(config=cfg, params=params)

    def copy(self) -> "EncoderState":
        return EncoderState(config=self.config, params={k: v.copy() for k, v in self.params.items()})


def init_encoder(cfg: EncoderConfig, seed: int) -> EncoderState:
    """Scaled-uniform init: weights U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
    layer-norm gains 1, all biases 0. The prediction head uses a 10x smaller
    bound so initial logits are near zero and the masked loss starts at ln k.
    Deterministic given `seed`."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_layout(cfg):
        if name.endswith(".gain"):
            params[name] = np.ones(shape)
        elif len(shape) == 2:
            bound = 1.0 / math.sqrt(shape[0])
            if name == "head.weight":
                bound *= 0.1
            params[name] = rng.uniform(-bound, bound, size=shape)
        elif name == "mask_embedding":
            bound = 1.0 / math.sqrt(shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            params[name] = np.zeros(shape)
    return EncoderState(config=cfg, params=params)


def _sinusoid_table(n_frames: int, dim: int) -> Matrix:
    pos = np.arange(n_frames)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    pe = np.zeros((n_frames, dim))
    pe[:, 0::2] = np.sin(angle[:, 0::2])
    pe[:, 1::2] = np.cos(angle[:, 1::2])
    pe.setflags(write=False)
    return pe


# dim -> read-only table, rebuilt when a longer sequence than it holds arrives
_positional_tables: dict[int, Matrix] = {}


def positional_encoding(n_frames: int, dim: int) -> Matrix:
    """Fixed sinusoidal position table, shape (n_frames, dim), read-only.

    Entry (t, i) depends on t and i alone, so the prefix of a longer table
    is bit-identical to a table built at ``n_frames``.
    """
    table = _positional_tables.get(dim)
    if table is None or table.shape[0] < n_frames:
        table = _positional_tables[dim] = _sinusoid_table(n_frames, dim)
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
    masked = []
    for s in starts:
        masked.extend(range(s, min(s + cfg.mask_span, n_frames)))
    return MaskSpec(np.array(masked, dtype=np.int64))


def apply_mask(
    feats: FeatureSequence,
    cfg: EncoderConfig,
    seed: int,
    mask_embedding: np.ndarray,
) -> tuple[FeatureSequence, MaskSpec]:
    """Replace masked feature rows with the learned mask embedding."""
    spec = sample_mask(feats.n_frames, cfg, seed)
    frames = feats.frames.copy()
    frames[spec.masked_frames] = np.asarray(mask_embedding, dtype=np.float64)
    masked = FeatureSequence(frames=frames, frame_labels=feats.frame_labels,
                             utterance_id=feats.utterance_id)
    return masked, spec


# ----------------------------------------------------------------------
# forward / backward
# ----------------------------------------------------------------------

def _layer_norm(x: Matrix, gain: np.ndarray, bias: np.ndarray):
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mean) * inv_std
    return gain * xhat + bias, xhat, inv_std


def _layer_norm_backward(g_out: Matrix, xhat: Matrix, inv_std: Matrix, gain: np.ndarray):
    g_gain = (g_out * xhat).sum(axis=0)
    g_bias = g_out.sum(axis=0)
    g_xhat = g_out * gain
    d = xhat.shape[1]
    g_x = inv_std * (
        g_xhat
        - g_xhat.mean(axis=1, keepdims=True)
        - xhat * (g_xhat * xhat).sum(axis=1, keepdims=True) / d
    )
    return g_x, g_gain, g_bias


def _softmax_rows(x: Matrix) -> Matrix:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(
    state: EncoderState,
    feats: Union[FeatureSequence, Matrix],
    training: bool = False,
    mask: Optional[MaskSpec] = None,
) -> tuple[Matrix, dict]:
    """Input projection + positional encoding, then pre-norm attention/MLP
    blocks with residuals. Returns (reps, cache); the cache feeds `backward`.

    Teacher mode is simply ``training=False`` with no mask: there is no
    dropout anywhere, so evaluation is deterministic either way. `mask` marks
    rows whose content is the mask embedding, which routes their input
    gradient into the embedding's gradient.
    """
    x_in = feats.frames if isinstance(feats, FeatureSequence) else as_matrix(feats, "feats")
    cfg = state.config
    if x_in.shape[1] != cfg.feature_dim:
        raise ValueError(f"feature dim {x_in.shape[1]} != config {cfg.feature_dim}")
    p = state.params
    scale = 1.0 / math.sqrt(cfg.model_dim)

    h0 = x_in @ p["in_proj.weight"] + p["in_proj.bias"] + positional_encoding(x_in.shape[0], cfg.model_dim)
    x = h0
    blocks = []
    for b in range(cfg.n_blocks):
        pre = f"block{b}."
        a_in, xhat1, inv_std1 = _layer_norm(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        q = a_in @ p[pre + "attn.wq"]
        k = a_in @ p[pre + "attn.wk"]
        v = a_in @ p[pre + "attn.wv"]
        attn = _softmax_rows(q @ k.T * scale)
        att_out = attn @ v
        o = att_out @ p[pre + "attn.wo"]
        x_mid = x + o
        m_in, xhat2, inv_std2 = _layer_norm(x_mid, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        h_act = np.tanh(m_in @ p[pre + "mlp.w1"] + p[pre + "mlp.b1"])
        x_out = x_mid + h_act @ p[pre + "mlp.w2"] + p[pre + "mlp.b2"]
        blocks.append(dict(x=x, xhat1=xhat1, inv_std1=inv_std1, a_in=a_in, q=q, k=k, v=v,
                           attn=attn, att_out=att_out, x_mid=x_mid, xhat2=xhat2,
                           inv_std2=inv_std2, m_in=m_in, h_act=h_act))
        x = x_out
    if not np.isfinite(x).all():
        raise TrainingDivergedError("non-finite activations in encoder forward")
    cache = dict(state=state, x_in=x_in, blocks=blocks, reps=x,
                 mask=None if mask is None else mask.masked_frames, training=training)
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
    masked-prediction path). Either may be None.
    """
    state: EncoderState = cache["state"]
    cfg = state.config
    p = state.params
    reps = cache["reps"]
    scale = 1.0 / math.sqrt(cfg.model_dim)
    grads = {name: np.zeros(shape) for name, shape in param_layout(cfg)}

    g = np.zeros_like(reps)
    if grad_reps is not None:
        if grad_reps.shape != reps.shape:
            raise ValueError("grad_reps shape mismatch")
        g = g + grad_reps
    if grad_logits is not None:
        if grad_logits.shape != (reps.shape[0], cfg.k_codewords):
            raise ValueError("grad_logits shape mismatch")
        grads["head.weight"] += reps.T @ grad_logits
        grads["head.bias"] += grad_logits.sum(axis=0)
        g = g + grad_logits @ p["head.weight"].T

    for b in reversed(range(cfg.n_blocks)):
        pre = f"block{b}."
        c = cache["blocks"][b]
        # MLP sub-block: x_out = x_mid + tanh(m_in W1 + b1) W2 + b2
        g_hact = g @ p[pre + "mlp.w2"].T
        grads[pre + "mlp.w2"] += c["h_act"].T @ g
        grads[pre + "mlp.b2"] += g.sum(axis=0)
        g_hpre = g_hact * (1.0 - c["h_act"] ** 2)
        grads[pre + "mlp.w1"] += c["m_in"].T @ g_hpre
        grads[pre + "mlp.b1"] += g_hpre.sum(axis=0)
        g_min = g_hpre @ p[pre + "mlp.w1"].T
        g_ln2, gg2, gb2 = _layer_norm_backward(g_min, c["xhat2"], c["inv_std2"], p[pre + "ln2.gain"])
        grads[pre + "ln2.gain"] += gg2
        grads[pre + "ln2.bias"] += gb2
        g_xmid = g + g_ln2
        # attention sub-block: x_mid = x + (softmax(q k^T scale) v) Wo
        g_o = g_xmid
        grads[pre + "attn.wo"] += c["att_out"].T @ g_o
        g_attout = g_o @ p[pre + "attn.wo"].T
        g_attn = g_attout @ c["v"].T
        g_v = c["attn"].T @ g_attout
        g_scores = c["attn"] * (g_attn - (g_attn * c["attn"]).sum(axis=1, keepdims=True))
        g_q = g_scores @ c["k"] * scale
        g_k = g_scores.T @ c["q"] * scale
        grads[pre + "attn.wq"] += c["a_in"].T @ g_q
        grads[pre + "attn.wk"] += c["a_in"].T @ g_k
        grads[pre + "attn.wv"] += c["a_in"].T @ g_v
        g_ain = g_q @ p[pre + "attn.wq"].T + g_k @ p[pre + "attn.wk"].T + g_v @ p[pre + "attn.wv"].T
        g_ln1, gg1, gb1 = _layer_norm_backward(g_ain, c["xhat1"], c["inv_std1"], p[pre + "ln1.gain"])
        grads[pre + "ln1.gain"] += gg1
        grads[pre + "ln1.bias"] += gb1
        g = g_xmid + g_ln1

    grads["in_proj.weight"] += cache["x_in"].T @ g
    grads["in_proj.bias"] += g.sum(axis=0)
    if cache["mask"] is not None and cache["mask"].size:
        g_input = g @ p["in_proj.weight"].T
        grads["mask_embedding"] += g_input[cache["mask"]].sum(axis=0)
    return np.concatenate([grads[name].ravel() for name, _ in param_layout(cfg)])
