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
    EncoderConfig,
    EncoderState,
    MaskSpec,
    apply_mask,
    backward,
    forward,
    init_encoder,
    param_layout,
    positional_encoding,
    predict_codewords,
    sample_mask,
)
from vicspeech.numerics import grad_check


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

    @pytest.mark.parametrize("name, low", [("model_dim", 2), ("n_blocks", 1),
                                           ("mlp_hidden", 1), ("mask_span", 1)])
    def test_config_below_minimum_rejected(self, small_cfg, name, low):
        with pytest.raises(ValueError, match=f"{name} must be >= {low}"):
            EncoderConfig(**{**small_cfg.__dict__, name: low - 1})

    def test_layer_norm_gains_one_biases_zero(self, small_state):
        for name, value in small_state.params.items():
            if name.endswith(".gain"):
                assert np.all(value == 1.0)
            elif name.endswith("ln1.bias") or name.endswith("ln2.bias"):
                assert np.all(value == 0.0)

    def test_weight_bounds_scale_with_fan_in(self, small_state):
        for name, shape in param_layout(small_state.config):
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

        layout = param_layout(small_cfg)
        sizes = {name: int(np.prod(shape)) for name, shape in layout}
        offset = 0
        head_indices = []
        for name, _ in layout:
            if name.startswith("head."):
                head_indices.extend(range(offset, offset + sizes[name]))
            offset += sizes[name]

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

        layout = param_layout(small_cfg)
        offset = 0
        for name, shape in layout:
            size = int(np.prod(shape))
            if name == "mask_embedding":
                emb_grad = grad[offset : offset + size]
            offset += size
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
