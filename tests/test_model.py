"""Encoder init, masking, forward determinism, and the analytic backward."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vicspeech import model
from vicspeech.losses import masked_prediction_loss
from vicspeech.model import (
    LN_EPS,
    EncoderConfig,
    EncoderState,
    MaskSpec,
    TrainingDivergedError,
    apply_mask,
    backward,
    forward,
    init_encoder,
    param_layout,
    positional_encoding,
    predict_codewords,
    sample_mask,
)
from vicspeech.numerics import as_matrix, grad_check


@pytest.fixture
def small_cfg():
    return EncoderConfig(feature_dim=10, model_dim=16, n_blocks=2, mlp_hidden=24,
                         k_codewords=8, mask_start_prob=0.2, mask_span=3)


@pytest.fixture
def small_state(small_cfg):
    return init_encoder(small_cfg, seed=0)


def as_float64(state):
    """`state` with its parameters widened to float64, so that the encoder
    computes in float64, as the gradient checks need."""
    return EncoderState.from_vector(state.config, state.to_vector().astype(np.float64))


def random_feats(cfg, n_frames=12, seed=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_frames, cfg.feature_dim))


class TestInit:
    def test_deterministic(self, small_cfg):
        a = init_encoder(small_cfg, 7).to_vector()
        b = init_encoder(small_cfg, 7).to_vector()
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name, low", [("feature_dim", 1), ("model_dim", 2), ("n_blocks", 1),
                                           ("mlp_hidden", 1), ("mask_span", 1)])
    def test_config_below_minimum_rejected(self, small_cfg, name, low):
        with pytest.raises(ValueError, match=f"{name} must be >= {low}"):
            EncoderConfig(**{**small_cfg.__dict__, name: low - 1})

    @pytest.mark.parametrize("k", [1, 0])
    def test_fewer_than_two_codewords_rejected(self, small_cfg, k):
        """An encoder needs two codewords to predict among. The bound names
        the config key, `k`, so a config error and a checkpoint error read alike."""
        with pytest.raises(ValueError, match="invalid encoder config: k must be >= 2"):
            EncoderConfig(**{**small_cfg.__dict__, "k_codewords": k})

    def test_layer_norm_gains_one_biases_zero(self, small_state):
        for name, value in small_state.params.items():
            if name.endswith(".gain"):
                assert np.all(value == 1.0)
            elif name.endswith("ln1.bias") or name.endswith("ln2.bias"):
                assert np.all(value == 0.0)

    def test_weight_bounds_scale_with_fan_in(self, small_state):
        for name, shape, _ in param_layout(small_state.config):
            if len(shape) == 2:
                bound = 1.0 / math.sqrt(shape[0])
                assert np.abs(small_state.params[name]).max() <= bound

    def test_masked_loss_near_log_k_at_init(self, small_cfg):
        """Near-uniform softmax at init: masked loss within 10% of ln k."""
        state = init_encoder(small_cfg, 3)
        feats = random_feats(small_cfg, n_frames=40)
        reps, _ = forward(state, feats)
        logits = predict_codewords(state, reps)
        labels = np.random.default_rng(0).integers(small_cfg.k_codewords, size=40)
        loss, _ = masked_prediction_loss(logits, labels, MaskSpec(np.arange(40)))
        assert abs(loss - math.log(small_cfg.k_codewords)) < 0.1 * math.log(small_cfg.k_codewords)

    def test_vector_round_trip(self, small_state):
        vec = small_state.to_vector()
        back = EncoderState.from_vector(small_state.config, vec)
        for name in small_state.params:
            assert np.array_equal(back.params[name], small_state.params[name])


def _reference_init(cfg, seed):
    """`init_encoder` before a state became one vector, kept as the
    reference: a draw per parameter, in layout order, each its own array."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape, _ in param_layout(cfg):
        if name.endswith(".gain"):
            params[name] = np.ones(shape, model.PARAM_DTYPE)
        elif len(shape) == 2 or name == "mask_embedding":
            bound = 1.0 / math.sqrt(shape[0])
            if name == "head.weight":
                bound *= 0.1
            params[name] = rng.uniform(-bound, bound, size=shape).astype(model.PARAM_DTYPE)
        else:
            params[name] = np.zeros(shape, model.PARAM_DTYPE)
    return params


INIT_CONFIGS = [
    EncoderConfig(),
    EncoderConfig(feature_dim=10, model_dim=16, n_blocks=2, mlp_hidden=24, k_codewords=8),
    EncoderConfig(feature_dim=1, model_dim=2, n_blocks=1, mlp_hidden=1, k_codewords=2),
    EncoderConfig(feature_dim=7, model_dim=5, n_blocks=3, mlp_hidden=9, k_codewords=3),
]


class TestPackedState:
    """A state is one read-only vector in `param_layout` order, and its
    parameters are views of it."""

    @pytest.mark.parametrize("cfg", INIT_CONFIGS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_init_equals_per_parameter_draws(self, cfg, seed):
        want = np.concatenate([p.ravel() for p in _reference_init(cfg, seed).values()])
        got = init_encoder(cfg, seed).to_vector()
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_layout_slices_tile_the_vector(self, small_cfg):
        layout = param_layout(small_cfg)
        assert param_layout(small_cfg) is layout
        offset = 0
        for _, shape, part in layout:
            assert (part.start, part.stop) == (offset, offset + math.prod(shape))
            offset = part.stop
        assert offset == init_encoder(small_cfg, 0).n_params()

    def test_params_are_views_of_the_vector(self, small_state):
        vec = small_state.vector
        assert small_state.to_vector() is vec
        for name, shape, part in param_layout(small_state.config):
            p = small_state.params[name]
            assert p.shape == shape
            assert p.base is vec
            assert p.__array_interface__["data"][0] == vec[part].__array_interface__["data"][0]

    def test_writing_a_parameter_or_the_vector_raises(self, small_state):
        before = small_state.vector.tobytes()
        for name in ("in_proj.weight", "block1.ln2.gain", "head.bias"):
            with pytest.raises(ValueError, match="read-only"):
                small_state.params[name][...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            small_state.vector[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            small_state.to_vector()[:] += 1.0
        assert small_state.vector.tobytes() == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_from_vector_keeps_its_own_copy(self, small_state, dtype):
        vec = small_state.to_vector().astype(dtype)
        state = EncoderState.from_vector(small_state.config, vec)
        assert state.vector.dtype == dtype
        assert state.vector.tobytes() == vec.tobytes()
        vec[:] = 7.0
        assert state.vector.tobytes() == small_state.vector.astype(dtype).tobytes()
        assert vec.flags.writeable

    def test_wrong_length_rejected(self, small_state):
        with pytest.raises(ValueError, match="expected"):
            EncoderState.from_vector(small_state.config, small_state.vector[:-1])


def _reference_sample_mask(n_frames, cfg, seed):
    """`sample_mask` before its spans became one array, kept verbatim as the
    reference."""
    rng = np.random.default_rng(seed)
    starts = np.flatnonzero(rng.random(n_frames) < cfg.mask_start_prob)
    masked = []
    for s in starts:
        masked.extend(range(s, min(s + cfg.mask_span, n_frames)))
    return MaskSpec(np.array(masked, dtype=np.int64))


class TestMasking:
    def test_zero_prob_masks_nothing(self, small_cfg):
        cfg = EncoderConfig(**{**small_cfg.__dict__, "mask_start_prob": 0.0})
        feats = random_feats(cfg)
        emb = np.zeros(cfg.feature_dim)
        masked, spec = apply_mask(feats, cfg, seed=0, mask_embedding=emb)
        assert len(spec) == 0
        assert np.array_equal(masked, feats)

    def test_prob_one_full_span_masks_everything(self, small_cfg):
        cfg = EncoderConfig(**{**small_cfg.__dict__, "mask_start_prob": 1.0,
                               "mask_span": 12})
        feats = random_feats(cfg, n_frames=12)
        emb = np.full(cfg.feature_dim, 3.25)
        masked, spec = apply_mask(feats, cfg, seed=0, mask_embedding=emb)
        assert len(spec) == 12
        assert np.all(masked == 3.25)

    def test_span_union_coverage_monte_carlo(self):
        """prob=0.08, span=10, T=100: mean coverage lands in [0.4, 0.75]."""
        cfg = EncoderConfig(feature_dim=4, model_dim=4, n_blocks=1, mlp_hidden=4,
                            k_codewords=2, mask_start_prob=0.08, mask_span=10)
        fractions = [len(sample_mask(100, cfg, seed)) / 100.0 for seed in range(500)]
        assert 0.4 <= np.mean(fractions) <= 0.75

    def test_spans_truncate_at_sequence_end(self, small_cfg):
        cfg = EncoderConfig(**{**small_cfg.__dict__, "mask_start_prob": 1.0,
                               "mask_span": 5})
        spec = sample_mask(3, cfg, seed=1)
        assert spec.masked_frames.max() < 3

    def test_deterministic(self, small_cfg):
        a = sample_mask(50, small_cfg, seed=4).masked_frames
        b = sample_mask(50, small_cfg, seed=4).masked_frames
        assert np.array_equal(a, b)

    @settings(max_examples=300, deadline=None)
    @given(n_frames=st.integers(0, 200),
           prob=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           span=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
    def test_equals_reference(self, n_frames, prob, span, seed):
        cfg = EncoderConfig(mask_start_prob=prob, mask_span=span)
        got = sample_mask(n_frames, cfg, seed).masked_frames
        want = _reference_sample_mask(n_frames, cfg, seed).masked_frames
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestForward:
    def test_output_shape(self, small_state, small_cfg):
        feats = random_feats(small_cfg, n_frames=9)
        reps, _ = forward(small_state, feats)
        assert reps.shape == (9, small_cfg.model_dim)

    def test_deterministic_and_training_flag_free(self, small_state, small_cfg):
        feats = random_feats(small_cfg)
        a, _ = forward(small_state, feats, training=False)
        b, _ = forward(small_state, feats, training=True)
        assert np.array_equal(a, b)

    def test_attention_rows_sum_to_one(self, small_state, small_cfg):
        feats = random_feats(small_cfg)
        _, cache = forward(small_state, feats)
        for block in cache["blocks"]:
            assert np.allclose(block["attn"].sum(axis=1), 1.0, atol=1e-12)

    def test_feature_dim_mismatch_rejected(self, small_state):
        with pytest.raises(ValueError):
            forward(small_state, np.zeros((5, 3)))


def _reference_positional_encoding(n_frames, dim, dtype):
    """The table built afresh for each call, as before it was cached, then
    cast to `dtype`."""
    pos = np.arange(n_frames)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    pe = np.zeros((n_frames, dim))
    pe[:, 0::2] = np.sin(angle[:, 0::2])
    pe[:, 1::2] = np.cos(angle[:, 1::2])
    return pe.astype(dtype)


class TestPositionalEncoding:
    LENGTHS = (145, 1, 300, 145, 1, 300)  # the table grows, then serves shorter prefixes

    def test_forward_matches_uncached_table(self, small_state, small_cfg, monkeypatch):
        feats = {t: random_feats(small_cfg, n_frames=t, seed=t) for t in set(self.LENGTHS)}
        with monkeypatch.context() as m:
            m.setattr(model, "positional_encoding", _reference_positional_encoding)
            want = {t: forward(small_state, f)[0] for t, f in feats.items()}
        monkeypatch.setattr(model, "_positional_tables", {})
        for t in self.LENGTHS:
            assert forward(small_state, feats[t])[0].tobytes() == want[t].tobytes()

    def test_table_is_read_only_prefix(self, monkeypatch):
        monkeypatch.setattr(model, "_positional_tables", {})
        for t, dtype in itertools.product(self.LENGTHS, (np.float64, np.float32)):
            pe = positional_encoding(t, 16, dtype)
            assert pe.tobytes() == _reference_positional_encoding(t, 16, dtype).tobytes()
            assert not pe.flags.writeable
            with pytest.raises(ValueError):
                pe[0, 0] = 1.0


class TestPredictCodewords:
    def test_zero_reps_zero_bias_head_gives_zero_logits(self, small_state, small_cfg):
        reps = np.zeros((4, small_cfg.model_dim))
        logits = predict_codewords(small_state, reps)
        assert np.array_equal(logits, np.zeros((4, small_cfg.k_codewords)))

    def test_shape(self, small_state, small_cfg):
        reps = np.ones((6, small_cfg.model_dim))
        assert predict_codewords(small_state, reps).shape == (6, small_cfg.k_codewords)

    def test_head_gradient_matches_finite_differences(self, small_cfg):
        state = as_float64(init_encoder(small_cfg, 2))
        feats = random_feats(small_cfg)
        labels = np.random.default_rng(1).integers(small_cfg.k_codewords, size=12)
        spec = MaskSpec(np.array([0, 3, 7]))
        reps, cache = forward(state, feats, mask=spec)
        logits = predict_codewords(state, reps)
        _, grad_logits = masked_prediction_loss(logits, labels, spec)
        grad = backward(cache, grad_logits=grad_logits)

        head_indices = []
        for name, _, part in param_layout(small_cfg):
            if name.startswith("head."):
                head_indices.extend(range(part.start, part.stop))

        def loss_of(vec):
            st = EncoderState.from_vector(small_cfg, vec)
            r, _ = forward(st, feats, mask=spec)
            lg = predict_codewords(st, r)
            return masked_prediction_loss(lg, labels, spec)[0]

        report = grad_check(loss_of, grad, state.to_vector(), 1e-5, indices=head_indices)
        assert report.max_rel_error <= 1e-6


class TestDtype:
    """The parameters' dtype is the dtype of every result: one operand of
    another dtype would quietly widen the arithmetic, and no value test
    would see it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_result_has_the_parameters_dtype(self, small_state, small_cfg, dtype):
        state = EncoderState.from_vector(small_cfg, small_state.to_vector().astype(dtype))
        feats = random_feats(small_cfg)  # float64 frames
        masked, spec = apply_mask(feats, small_cfg, seed=2,
                                  mask_embedding=state.params["mask_embedding"])
        assert len(spec) > 0 and masked.dtype == dtype
        reps, cache = forward(state, masked, training=True, mask=spec)
        assert reps.dtype == dtype
        assert cache["x_in"].dtype == dtype
        for block in cache["blocks"]:
            for key, value in block.items():
                assert value.dtype == dtype, key
        logits = predict_codewords(state, reps)
        assert logits.dtype == dtype
        labels = np.random.default_rng(1).integers(small_cfg.k_codewords, size=len(feats))
        _, grad_logits = masked_prediction_loss(logits, labels, spec)  # float64 upstream
        grad_reps = np.random.default_rng(2).standard_normal(reps.shape)
        assert backward(cache, grad_reps=grad_reps, grad_logits=grad_logits).dtype == dtype
        assert backward(cache, grad_logits=grad_logits).dtype == dtype
        assert backward(cache, grad_reps=grad_reps).dtype == dtype

    def test_init_gives_float32(self, small_state):
        assert model.PARAM_DTYPE == np.float32
        assert {value.dtype for value in small_state.params.values()} == {np.dtype(np.float32)}


class TestBackward:
    def test_null_upstream_gives_zero_gradients(self, small_state, small_cfg):
        feats = random_feats(small_cfg)
        reps, cache = forward(small_state, feats)
        grad = backward(cache,
                        grad_reps=np.zeros_like(reps),
                        grad_logits=np.zeros((12, small_cfg.k_codewords)))
        assert np.all(grad == 0.0)

    def test_upstream_paths_are_additive(self, small_state, small_cfg):
        rng = np.random.default_rng(8)
        feats = random_feats(small_cfg)
        reps, cache = forward(as_float64(small_state), feats)
        g_reps = rng.standard_normal(reps.shape)
        g_logits = rng.standard_normal((12, small_cfg.k_codewords))
        joint = backward(cache, grad_reps=g_reps, grad_logits=g_logits)
        separate = backward(cache, grad_reps=g_reps) + backward(cache, grad_logits=g_logits)
        assert np.allclose(joint, separate, atol=1e-12)

    def test_shape_mismatch_rejected(self, small_state, small_cfg):
        feats = random_feats(small_cfg)
        reps, cache = forward(small_state, feats)
        with pytest.raises(ValueError):
            backward(cache, grad_reps=np.zeros((3, 3)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_model_gradient_check(self, seed):
        """End-to-end check of the trainer's batch objective through the
        encoder at the T=12+9, d=16, k=8 scale; at least 200 coordinates."""
        from vicspeech.analysis import _full_model_loss_and_grad

        loss_of, grad, vec0, cfg = _full_model_loss_and_grad(seed=seed)
        rng = np.random.default_rng(seed)
        idx = rng.choice(vec0.size, size=min(220, vec0.size), replace=False)
        report = grad_check(loss_of, grad, vec0, 1e-5, indices=sorted(set(idx.tolist())))
        assert report.max_rel_error <= 1e-4

    def test_mask_embedding_gradient_routed(self, small_cfg):
        """Masked rows' input gradient accumulates into the mask embedding."""
        state = init_encoder(small_cfg, 4)
        feats = random_feats(small_cfg)
        masked, spec = apply_mask(feats, small_cfg, seed=2,
                                  mask_embedding=state.params["mask_embedding"])
        assert len(spec) > 0
        reps, cache = forward(state, masked, mask=spec)
        rng = np.random.default_rng(3)
        grad = backward(cache, grad_reps=rng.standard_normal(reps.shape))

        for name, _, part in param_layout(small_cfg):
            if name == "mask_embedding":
                emb_grad = grad[part]
        assert np.abs(emb_grad).max() > 0.0


class TestSerializationRoundTrip:
    def test_lossless_at_float32(self, small_state, tmp_path):
        """The encoder's parameters are float32, so a save and a load give
        back the same bytes."""
        from vicspeech.checkpoint import load_encoder, save_encoder

        path = tmp_path / "enc.ckpt"
        save_encoder(path, small_state)
        back = load_encoder(path)
        assert back.config == small_state.config
        assert back.params.keys() == small_state.params.keys()
        for name, value in small_state.params.items():
            assert value.dtype == model.PARAM_DTYPE
            assert back.params[name].dtype == value.dtype
            assert back.params[name].tobytes() == value.tobytes()


# ----------------------------------------------------------------------
# references: the encoder as it was before its sums went through BLAS and
# its arithmetic went in place, kept verbatim
# ----------------------------------------------------------------------

def _ref_layer_norm(x, gain, bias):
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mean) * inv_std
    return gain * xhat + bias, xhat, inv_std


def _ref_layer_norm_backward(g_out, xhat, inv_std, gain):
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


def _ref_softmax_rows(x):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _ref_forward(state, x, training=False, mask=None):
    cfg = state.config
    p = state.params
    dtype = p["in_proj.weight"].dtype
    x_in = as_matrix(x, "frames", dtype)
    if x_in.shape[1] != cfg.feature_dim:
        raise ValueError(f"feature dim {x_in.shape[1]} != config {cfg.feature_dim}")
    scale = 1.0 / math.sqrt(cfg.model_dim)

    h0 = (x_in @ p["in_proj.weight"] + p["in_proj.bias"]
          + positional_encoding(x_in.shape[0], cfg.model_dim, dtype))
    x = h0
    blocks = []
    for b in range(cfg.n_blocks):
        pre = f"block{b}."
        a_in, xhat1, inv_std1 = _ref_layer_norm(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        q = a_in @ p[pre + "attn.wq"]
        k = a_in @ p[pre + "attn.wk"]
        v = a_in @ p[pre + "attn.wv"]
        attn = _ref_softmax_rows(q @ k.T * scale)
        att_out = attn @ v
        o = att_out @ p[pre + "attn.wo"]
        x_mid = x + o
        m_in, xhat2, inv_std2 = _ref_layer_norm(x_mid, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        h_act = np.tanh(m_in @ p[pre + "mlp.w1"] + p[pre + "mlp.b1"])
        x_out = x_mid + h_act @ p[pre + "mlp.w2"] + p[pre + "mlp.b2"]
        blocks.append(dict(xhat1=xhat1, inv_std1=inv_std1, a_in=a_in, q=q, k=k, v=v,
                           attn=attn, att_out=att_out, xhat2=xhat2, inv_std2=inv_std2,
                           m_in=m_in, h_act=h_act))
        x = x_out
    if not np.isfinite(x).all():
        raise TrainingDivergedError("non-finite activations in encoder forward")
    cache = dict(state=state, x_in=x_in, blocks=blocks, reps=x,
                 mask=None if mask is None else mask.masked_frames)
    return x, cache


def _ref_backward(cache, grad_reps=None, grad_logits=None):
    state = cache["state"]
    cfg = state.config
    p = state.params
    reps = cache["reps"]
    scale = 1.0 / math.sqrt(cfg.model_dim)
    grads = {}  # set once each, so one widened entry widens the result

    g = np.zeros_like(reps)
    if grad_reps is not None:
        if grad_reps.shape != reps.shape:
            raise ValueError("grad_reps shape mismatch")
        g = g + grad_reps.astype(reps.dtype, copy=False)
    if grad_logits is not None:
        if grad_logits.shape != (reps.shape[0], cfg.k_codewords):
            raise ValueError("grad_logits shape mismatch")
        grad_logits = grad_logits.astype(reps.dtype, copy=False)
        grads["head.weight"] = reps.T @ grad_logits
        grads["head.bias"] = grad_logits.sum(axis=0)
        g = g + grad_logits @ p["head.weight"].T

    for b in reversed(range(cfg.n_blocks)):
        pre = f"block{b}."
        c = cache["blocks"][b]
        # MLP sub-block: x_out = x_mid + tanh(m_in W1 + b1) W2 + b2
        g_hact = g @ p[pre + "mlp.w2"].T
        grads[pre + "mlp.w2"] = c["h_act"].T @ g
        grads[pre + "mlp.b2"] = g.sum(axis=0)
        g_hpre = g_hact * (1.0 - c["h_act"] ** 2)
        grads[pre + "mlp.w1"] = c["m_in"].T @ g_hpre
        grads[pre + "mlp.b1"] = g_hpre.sum(axis=0)
        g_min = g_hpre @ p[pre + "mlp.w1"].T
        g_ln2, grads[pre + "ln2.gain"], grads[pre + "ln2.bias"] = _ref_layer_norm_backward(
            g_min, c["xhat2"], c["inv_std2"], p[pre + "ln2.gain"])
        g_xmid = g + g_ln2
        # attention sub-block: x_mid = x + (softmax(q k^T scale) v) Wo
        g_o = g_xmid
        grads[pre + "attn.wo"] = c["att_out"].T @ g_o
        g_attout = g_o @ p[pre + "attn.wo"].T
        g_attn = g_attout @ c["v"].T
        g_v = c["attn"].T @ g_attout
        g_scores = c["attn"] * (g_attn - (g_attn * c["attn"]).sum(axis=1, keepdims=True))
        g_q = g_scores @ c["k"] * scale
        g_k = g_scores.T @ c["q"] * scale
        grads[pre + "attn.wq"] = c["a_in"].T @ g_q
        grads[pre + "attn.wk"] = c["a_in"].T @ g_k
        grads[pre + "attn.wv"] = c["a_in"].T @ g_v
        g_ain = g_q @ p[pre + "attn.wq"].T + g_k @ p[pre + "attn.wk"].T + g_v @ p[pre + "attn.wv"].T
        g_ln1, grads[pre + "ln1.gain"], grads[pre + "ln1.bias"] = _ref_layer_norm_backward(
            g_ain, c["xhat1"], c["inv_std1"], p[pre + "ln1.gain"])
        g = g_xmid + g_ln1

    grads["in_proj.weight"] = cache["x_in"].T @ g
    grads["in_proj.bias"] = g.sum(axis=0)
    if cache["mask"] is not None and cache["mask"].size:
        g_input = g @ p["in_proj.weight"].T
        grads["mask_embedding"] = g_input[cache["mask"]].sum(axis=0)
    layout = param_layout(cfg)
    for name, shape, _ in layout:  # a path not taken (no logits, no mask) has zero gradient
        grads.setdefault(name, np.zeros(shape, reps.dtype))
    return np.concatenate([grads[name].ravel() for name, _, _ in layout])


def _numpy_row_sums(x):
    return x.sum(axis=1, keepdims=True)


def _numpy_col_sums(x):
    return x.sum(axis=0)


UPSTREAMS = list(itertools.product((False, True), repeat=2))  # (grad_reps, grad_logits) given


def _encoder_case(n_frames, model_dim, masked, mask_prob, seed, dtype):
    """A state with every parameter moved off its init, in `dtype`; frames
    in `dtype` (so that `forward` reads them in place), with the masked rows
    substituted when `masked`; the mask or None; and both upstreams, each
    with a -0.0 entry."""
    cfg = EncoderConfig(feature_dim=10, model_dim=model_dim, n_blocks=2, mlp_hidden=24,
                        k_codewords=8, mask_start_prob=mask_prob, mask_span=4)
    rng = np.random.default_rng(seed)
    vec = init_encoder(cfg, seed).to_vector().astype(np.float64)
    state = EncoderState.from_vector(cfg, (vec + 0.1 * rng.standard_normal(vec.size)).astype(dtype))
    frames = rng.standard_normal((n_frames, cfg.feature_dim)).astype(dtype)
    spec = None
    if masked:
        frames, spec = apply_mask(frames, cfg, seed, state.params["mask_embedding"])
    grad_reps = rng.standard_normal((n_frames, model_dim)).astype(dtype)
    grad_logits = rng.standard_normal((n_frames, cfg.k_codewords)).astype(dtype)
    grad_reps[0, -1] = grad_logits[-1, 0] = -0.0
    return state, frames, spec, grad_reps, grad_logits


def _upstream(given, grad_reps, grad_logits):
    return dict(grad_reps=grad_reps if given[0] else None,
                grad_logits=grad_logits if given[1] else None)


def _cache_arrays(cache):
    """Every array of a forward cache, by a name of its own."""
    out = {"x_in": cache["x_in"], "reps": cache["reps"]}
    if cache["mask"] is not None:
        out["mask"] = cache["mask"]
    for b, block in enumerate(cache["blocks"]):
        out.update({f"block{b}.{key}": value for key, value in block.items()})
    return out


ENCODER_CASES = dict(n_frames=st.integers(1, 320), model_dim=st.sampled_from([8, 12, 20, 32]),
                     masked=st.booleans(), mask_prob=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
                     seed=st.integers(0, 2**32 - 1))


class TestEncoderEqualsReference:
    """The encoder against the references above: bit for bit when its sums
    are numpy's, and within float32 rounding with the sums it ships."""

    @settings(max_examples=40, deadline=None)
    @given(**ENCODER_CASES)
    def test_bitwise_with_numpy_sums(self, n_frames, model_dim, masked, mask_prob, seed):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(model, "_row_sums", _numpy_row_sums)
            m.setattr(model, "_col_sums", _numpy_col_sums)
            for dtype in (np.float32, np.float64):
                state, frames, spec, grad_reps, grad_logits = _encoder_case(
                    n_frames, model_dim, masked, mask_prob, seed, dtype)
                reps, cache = forward(state, frames, mask=spec)
                want_reps, want_cache = _ref_forward(state, frames, mask=spec)
                assert reps.tobytes() == want_reps.tobytes()
                got, want = _cache_arrays(cache), _cache_arrays(want_cache)
                assert got.keys() == want.keys()
                for key in want:
                    assert got[key].dtype == want[key].dtype, key
                    assert got[key].tobytes() == want[key].tobytes(), key
                for given_ in UPSTREAMS:
                    up = _upstream(given_, grad_reps, grad_logits)
                    grad = backward(cache, **up)
                    ref = _ref_backward(want_cache, **up)
                    assert grad.dtype == ref.dtype
                    assert grad.tobytes() == ref.tobytes(), given_

    @settings(max_examples=25, deadline=None)
    @given(**ENCODER_CASES)
    def test_within_rounding_of_the_reference(self, n_frames, model_dim, masked, mask_prob,
                                              seed):
        """Each output, and each parameter's gradient, differs from the
        reference's by at most 1e-5 of its largest magnitude."""
        for dtype in (np.float32, np.float64):
            state, frames, spec, grad_reps, grad_logits = _encoder_case(
                n_frames, model_dim, masked, mask_prob, seed, dtype)
            reps, cache = forward(state, frames, mask=spec)
            want_reps, want_cache = _ref_forward(state, frames, mask=spec)
            assert np.abs(reps - want_reps).max() <= 1e-5 * np.abs(want_reps).max()
            for given_ in UPSTREAMS[1:]:
                up = _upstream(given_, grad_reps, grad_logits)
                grad = backward(cache, **up)
                ref = _ref_backward(want_cache, **up)
                for name, _, part in param_layout(state.config):
                    g, r = grad[part], ref[part]
                    assert np.abs(g - r).max() <= 1e-5 * np.abs(r).max(), (given_, name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    def test_inputs_parameters_and_cache_are_left_unchanged(self, dtype, masked):
        """The frames are already in the parameters' dtype, so `forward`
        caches them as they are, and the upstreams reach `backward`'s
        arithmetic uncopied; every one of them keeps its bytes, and two
        `backward` calls on one cache agree."""
        state, frames, spec, grad_reps, grad_logits = _encoder_case(
            145, 32, masked, 0.1, 11, dtype)
        before = {name: value.tobytes() for name, value in state.params.items()}
        frames_before = frames.tobytes()
        reps, cache = forward(state, frames, mask=spec)
        assert cache["x_in"] is frames
        assert frames.tobytes() == frames_before
        cached = {key: value.tobytes() for key, value in _cache_arrays(cache).items()}
        upstream = (grad_reps.tobytes(), grad_logits.tobytes())
        for given_ in UPSTREAMS:
            up = _upstream(given_, grad_reps, grad_logits)
            first = backward(cache, **up)
            assert backward(cache, **up).tobytes() == first.tobytes()
        assert {key: value.tobytes() for key, value in _cache_arrays(cache).items()} == cached
        assert (grad_reps.tobytes(), grad_logits.tobytes()) == upstream
        assert {name: value.tobytes() for name, value in state.params.items()} == before
        assert frames.tobytes() == frames_before

    def test_ones_vectors_are_read_only(self, monkeypatch):
        monkeypatch.setattr(model, "_ones_vectors", {})
        for n, dtype in itertools.product((32, 1, 320, 145), (np.float32, np.float64)):
            ones = model._ones(n, dtype)
            assert ones.dtype == dtype and ones.shape == (n,) and np.all(ones == 1.0)
            with pytest.raises(ValueError):
                ones[0] = 2.0
