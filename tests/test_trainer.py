"""Adam, batching, the two-stage loops, and their determinism contracts."""

import itertools
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from vicspeech import trainer
from vicspeech.analysis import ABLATION_CONFIGS
from vicspeech.codebook import assign
from vicspeech.losses import VicWeights, covariance, invariance, masked_prediction_loss, \
    sample_frames, variance
from vicspeech.model import EncoderConfig, EncoderState, MaskSpec, TrainingDivergedError, \
    apply_mask, backward, forward, init_encoder, predict_codewords
from vicspeech.signal import Utterance, Waveform, extract_features, frame_labels, mix_at_snr, \
    synth_noise
from vicspeech.trainer import (
    AdamState,
    Corpus,
    TrainConfig,
    adam_step,
    batch_indices,
    derive_seed,
    make_batch,
    pretrain_clean,
    pretrain_noisy,
    step_objective,
    _TAG_MASK,
    _TAG_NOISE,
)


@pytest.fixture
def tiny_cfg():
    return TrainConfig(steps=8, batch_utterances=3, learning_rate=1e-3, seed=5,
                       noise_kinds=("music", "natural"), snr_range_db=(5.0, 10.0),
                       use_inv=True, use_var=True, use_cov=True)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = np.array([1.0, -2.0, 3.0])
        st = AdamState.zeros(3)
        new, st2 = adam_step(params, np.zeros(3), st, lr=1e-3)
        assert np.array_equal(new, params)
        assert st2.t == 1

    def test_first_step_bias_corrected_magnitude(self):
        """t=1, g=0.5: m_hat=0.5, v_hat=0.25, delta = -lr * 0.5/(0.5+eps)."""
        params = np.array([0.0])
        new, _ = adam_step(params, np.array([0.5]), AdamState.zeros(1), lr=1e-3)
        expected = -1e-3 * 0.5 / (0.5 + 1e-8)
        assert new[0] == pytest.approx(expected, rel=1e-12)
        assert new[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        params, grads = rng.standard_normal(10), rng.standard_normal(10)
        st = AdamState(m=rng.standard_normal(10), v=np.abs(rng.standard_normal(10)), t=3)
        a1, s1 = adam_step(params, grads, st, 1e-3)
        a2, s2 = adam_step(params, grads, st, 1e-3)
        assert np.array_equal(a1, a2)
        assert np.array_equal(s1.m, s2.m) and s1.t == s2.t

    def test_non_finite_gradients_rejected(self):
        with pytest.raises(TrainingDivergedError):
            adam_step(np.zeros(2), np.array([np.nan, 0.0]), AdamState.zeros(2), 1e-3)


class TestBatching:
    def test_epoch_is_bijection(self):
        n = 7
        batch = 1
        seen = [batch_indices(n, batch, step, seed=3)[0] for step in range(n)]
        assert sorted(seen) == list(range(n))

    def test_deterministic(self):
        assert batch_indices(10, 4, 6, seed=2) == batch_indices(10, 4, 6, seed=2)

    def test_batch_walks_across_epoch_boundary(self):
        n, batch = 5, 3
        flat = []
        for step in range(5):
            flat.extend(batch_indices(n, batch, step, seed=1))
        # every epoch-sized window starting at multiples of n is a permutation
        for e in range(3):
            assert sorted(flat[e * n : (e + 1) * n]) == list(range(n))

    def test_clean_and_noisy_variants_aligned(self, mini_corpus):
        items = make_batch(mini_corpus, 3, step=0, seed=9,
                           noise_kinds=("music",), snr_range_db=(5.0, 10.0))
        for item in items:
            assert item.noisy is not None
            assert item.noisy.shape == item.clean.shape
            assert 5.0 <= item.snr_db <= 10.0

    def test_same_seed_same_batch(self, mini_corpus):
        a = make_batch(mini_corpus, 3, step=4, seed=9, noise_kinds=("natural",),
                       snr_range_db=(5.0, 10.0))
        b = make_batch(mini_corpus, 3, step=4, seed=9, noise_kinds=("natural",),
                       snr_range_db=(5.0, 10.0))
        assert [i.utt_index for i in a] == [i.utt_index for i in b]
        for x, y in zip(a, b):
            assert np.array_equal(x.noisy, y.noisy)


_BATCH_ARGS = dict(batch_utterances=3, step=4, seed=9, noise_kinds=("music", "natural"),
                   snr_range_db=(5.0, 10.0))


def _assert_same_batch(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert (x.utt_index, x.noise_kind, x.snr_db) == (y.utt_index, y.noise_kind, y.snr_db)
        assert np.array_equal(x.noisy, y.noisy)


class TestBatchMemo:
    """`make_batch` keeps the last batch on the corpus and returns it again
    for a call with the same arguments."""

    def test_repeated_call_returns_the_same_items(self, mini_corpus):
        a = make_batch(mini_corpus, **_BATCH_ARGS)
        b = make_batch(mini_corpus, **_BATCH_ARGS)
        assert b is a
        _assert_same_batch(a, make_batch(Corpus(mini_corpus.utterances), **_BATCH_ARGS))

    @pytest.mark.parametrize("change", [
        {"step": 5}, {"seed": 10}, {"noise_kinds": ("natural",)},
        {"snr_range_db": (0.0, 5.0)}, {"batch_utterances": 4},
    ], ids=lambda change: next(iter(change)))
    def test_changed_argument_rebuilds(self, mini_corpus, change):
        before = make_batch(mini_corpus, **_BATCH_ARGS)
        args = {**_BATCH_ARGS, **change}
        got = make_batch(mini_corpus, **args)
        assert got is not before
        _assert_same_batch(got, make_batch(Corpus(mini_corpus.utterances), **args))

    def test_items_are_read_only(self, mini_corpus):
        for item in make_batch(mini_corpus, **_BATCH_ARGS):
            for arr in (item.clean, item.noisy):
                assert not arr.flags.writeable
            with pytest.raises(AttributeError):
                item.noisy = item.clean


class TestConditionFeatures:
    @pytest.mark.parametrize("kind", ["babble", "music", "natural"])
    def test_finite_snr_matches_direct_pipeline(self, mini_corpus, kind):
        utt = mini_corpus.utterances[2]
        got = mini_corpus.condition_features(2, kind, 7.5, 1234)
        noise = synth_noise(kind, 1234, len(utt.wave))
        mixed = mix_at_snr(utt.wave, noise, 7.5)
        want = extract_features(mixed.mixed)
        assert np.array_equal(got, want)

    def test_infinite_snr_returns_cached_clean(self, mini_corpus):
        got = mini_corpus.condition_features(1, "babble", float("inf"), 1234)
        assert got is mini_corpus.clean_features(1)

    def test_make_batch_noisy_uses_condition_features(self, mini_corpus):
        items = make_batch(mini_corpus, 4, step=3, seed=9, noise_kinds=("music", "natural"),
                           snr_range_db=(5.0, 10.0))
        for j, item in enumerate(items):
            want = mini_corpus.condition_features(item.utt_index, item.noise_kind, item.snr_db,
                                                  derive_seed(9, _TAG_NOISE, 3, j, 1))
            assert np.array_equal(item.noisy, want)


class TestCorpusChecks:
    def test_silent_utterance_is_named(self, mini_corpus):
        silent = Utterance("quiet", Waveform(np.zeros(1000)), [])
        with pytest.raises(ValueError, match="utterance quiet is silent"):
            Corpus([*mini_corpus.utterances, silent])


class TestCorpusLabels:
    def test_frame_labels_are_the_utterance_labels_at_the_corpus_framing(self, mini_corpus):
        for i, utt in enumerate(mini_corpus.utterances):
            labels = mini_corpus.frame_labels(i)
            assert np.array_equal(labels, frame_labels(utt))
            assert labels.size == mini_corpus.clean_features(i).shape[0]


def _reference_noisy_batch(corpus, batch_utterances, step, seed, noise_kinds, snr_range_db):
    """(utterance, kind, SNR, noisy features) per item, drawn as `make_batch`
    drew them before the draw moved into `Corpus.draw_condition`; the old
    loop body, kept verbatim as the reference."""
    out = []
    for j, utt_index in enumerate(batch_indices(len(corpus), batch_utterances, step, seed)):
        rng = np.random.default_rng(derive_seed(seed, _TAG_NOISE, step, j, 0))
        kind = str(noise_kinds[int(rng.integers(len(noise_kinds)))])
        snr_db = float(rng.uniform(*snr_range_db))
        noisy = corpus.condition_features(utt_index, kind, snr_db,
                                          derive_seed(seed, _TAG_NOISE, step, j, 1))
        out.append((utt_index, kind, snr_db, noisy))
    return out


class TestDrawCondition:
    @pytest.mark.parametrize("step,seed,kinds", [
        (0, 9, ("music", "natural")), (3, 1, ("babble", "music", "natural")), (7, 4, ("music",)),
    ])
    def test_make_batch_equals_reference(self, mini_corpus, step, seed, kinds):
        items = make_batch(Corpus(mini_corpus.utterances), 4, step, seed, noise_kinds=kinds,
                           snr_range_db=(0.0, 15.0))
        want = _reference_noisy_batch(mini_corpus, 4, step, seed, kinds, (0.0, 15.0))
        assert len(items) == len(want)
        for item, (utt_index, kind, snr_db, noisy) in zip(items, want):
            assert (item.utt_index, item.noise_kind, item.snr_db) == (utt_index, kind, snr_db)
            assert item.noisy.tobytes() == noisy.tobytes()

    def test_returns_the_drawn_condition_and_its_features(self, mini_corpus):
        kind, snr_db, feats = mini_corpus.draw_condition(3, ("music", "natural"), (5.0, 10.0),
                                                         11, 12)
        rng = np.random.default_rng(11)
        assert kind == ("music", "natural")[int(rng.integers(2))]
        assert snr_db == float(rng.uniform(5.0, 10.0))
        want = mini_corpus.condition_features(3, kind, snr_db, 12)
        assert feats.tobytes() == want.tobytes()


def _reference_vic_loss(pair, w, use_inv, use_var, use_cov):
    """`losses.vic_loss` before the VIC weights moved into `losses.total_loss`,
    kept verbatim as the reference."""
    s = v = c = 0.0
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
    return s, v, c, grad


def _reference_step_objective(state, inputs, specs, labels, teacher_reps, cfg, sample_seed):
    """`step_objective` before `losses.total_loss`, kept verbatim as the
    reference but for mapping the sampled pooled-batch rows back to
    (utterance, frame) coordinates; the breakdown is the old
    `LossBreakdown.build`, as a tuple."""
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

    s = v = c = 0.0
    grad_reps_list = [None] * len(caches)
    if teacher_reps is not None:
        pair = sample_frames(teacher_reps, reps_list, cfg.vic.n_sample, sample_seed)
        s, v, c, grad_zp = _reference_vic_loss(pair, cfg.vic, cfg.use_inv, cfg.use_var,
                                               cfg.use_cov)
        starts = np.cumsum([0] + [len(reps) for reps in reps_list[:-1]])
        utts = np.searchsorted(starts, pair.rows, side="right") - 1
        for row, (u, t) in enumerate(zip(utts, pair.rows - starts[utts])):
            if grad_reps_list[u] is None:
                grad_reps_list[u] = np.zeros_like(reps_list[u])
            grad_reps_list[u][t] += cfg.vic.alpha * grad_zp[row]

    grad = np.zeros(state.n_params())
    for cache, grad_reps, grad_logits in zip(caches, grad_reps_list, grad_logits_list):
        grad += backward(cache, grad_reps=grad_reps, grad_logits=grad_logits)
    w = cfg.vic
    l_vic = w.lam * s + w.mu * v + w.nu * c
    return (float(l_m), float(s), float(v), float(c), float(l_vic),
            float(l_m + w.alpha * l_vic)), grad


class TestStepObjectiveIsBitwise:
    """`step_objective` through `losses.total_loss` gives the breakdown and
    gradient of the code it replaced, bit for bit."""

    @pytest.fixture(scope="class")
    def batch(self):
        enc_cfg = EncoderConfig(feature_dim=10, model_dim=16, n_blocks=2, mlp_hidden=24,
                                k_codewords=8, mask_start_prob=0.25, mask_span=3)
        rng = np.random.default_rng(0)
        inputs = [rng.standard_normal((n, enc_cfg.feature_dim)) for n in (14, 9, 11)]
        labels = [rng.integers(enc_cfg.k_codewords, size=len(x)) for x in inputs]
        specs = [MaskSpec(np.array([1, 2, 5, 6, 9])), MaskSpec(np.array([0, 3, 4, 7])),
                 MaskSpec(np.array([2, 3, 10]))]
        teacher = init_encoder(enc_cfg, 1)
        teacher_reps = [forward(teacher, x)[0] for x in inputs]
        return init_encoder(enc_cfg, 2), inputs, specs, labels, teacher_reps

    @pytest.mark.parametrize("flags", [*itertools.product((False, True), repeat=3), None],
                             ids=lambda f: "no-teacher" if f is None else
                             "".join("ivc"[i] if on else "-" for i, on in enumerate(f)))
    def test_equals_reference(self, batch, flags):
        """At sample sizes below and past the batch's 34-frame pool."""
        state, inputs, specs, labels, teacher_reps = batch
        for n_sample in (5, 20, 40, 500):
            cfg = TrainConfig(vic=VicWeights(lam=5.0, mu=0.7, nu=1.3, gamma=2.0, alpha=0.3,
                                             n_sample=n_sample),
                              use_inv=True, use_var=True, use_cov=True)
            if flags is None:
                teacher_reps = None
            else:
                cfg = replace(cfg, use_inv=flags[0], use_var=flags[1], use_cov=flags[2])
            got, got_grad = step_objective(state, inputs, specs, labels, teacher_reps, cfg, 7)
            want, want_grad = _reference_step_objective(state, inputs, specs, labels,
                                                         teacher_reps, cfg, 7)
            assert (got.l_m, got.s, got.v, got.c, got.l_vic, got.l_tot) == want, n_sample
            assert got_grad.tobytes() == want_grad.tobytes(), n_sample


class TestPretrainClean:
    def test_initial_loss_near_log_k(self, mini_corpus, mini_codebook,
                                     mini_encoder_config, tiny_cfg):
        _, log = pretrain_clean(mini_corpus, mini_codebook, tiny_cfg,
                                enc_cfg=mini_encoder_config)
        lnk = math.log(mini_codebook.k)
        assert abs(log.steps[0].l_m - lnk) < 0.1 * lnk

    def test_deterministic_checkpoint(self, mini_corpus, mini_codebook,
                                      mini_encoder_config, tiny_cfg):
        a, _ = pretrain_clean(mini_corpus, mini_codebook, tiny_cfg,
                              enc_cfg=mini_encoder_config)
        b, _ = pretrain_clean(mini_corpus, mini_codebook, tiny_cfg,
                              enc_cfg=mini_encoder_config)
        assert np.array_equal(a.to_vector(), b.to_vector())

    def test_loss_logged_every_step(self, mini_corpus, mini_codebook,
                                    mini_encoder_config, tiny_cfg):
        _, log = pretrain_clean(mini_corpus, mini_codebook, tiny_cfg,
                                enc_cfg=mini_encoder_config)
        assert len(log.steps) == tiny_cfg.steps
        for b in log.steps:
            assert b.s == b.v == b.c == 0.0
            assert b.l_tot == b.l_m

    def test_the_next_state_takes_over_adams_vector(self, mini_corpus, mini_codebook,
                                                    mini_encoder_config, tiny_cfg,
                                                    monkeypatch):
        returned = []

        def recorded(*args, **kwargs):
            result = adam_step(*args, **kwargs)
            returned.append(result[0])
            return result

        monkeypatch.setattr(trainer, "adam_step", recorded)
        state, _ = pretrain_clean(mini_corpus, mini_codebook, replace(tiny_cfg, steps=1),
                                  enc_cfg=mini_encoder_config)
        assert len(returned) == 1
        assert state.vector is returned[0]
        assert not state.vector.flags.writeable


class TestPretrainNoisy:
    @pytest.fixture
    def teacher(self, mini_corpus, mini_codebook, mini_encoder_config, tiny_cfg):
        state, _ = pretrain_clean(mini_corpus, mini_codebook, tiny_cfg,
                                  enc_cfg=mini_encoder_config)
        return state

    def test_teacher_parameters_untouched(self, teacher, mini_corpus, mini_codebook,
                                          tiny_cfg):
        before = {k: v.copy() for k, v in teacher.params.items()}
        pretrain_noisy(teacher, mini_corpus, mini_codebook, [tiny_cfg])
        for name, value in teacher.params.items():
            assert np.array_equal(value, before[name])

    def test_student_initialized_from_teacher(self, teacher, mini_corpus,
                                              mini_codebook, tiny_cfg):
        [(student, _)] = pretrain_noisy(teacher, mini_corpus, mini_codebook,
                                        [replace(tiny_cfg, steps=1, learning_rate=0.0)])
        assert np.array_equal(student.to_vector(), teacher.to_vector())

    def test_total_loss_recomputes_from_components(self, teacher, mini_corpus,
                                                   mini_codebook, tiny_cfg):
        [(_, log)] = pretrain_noisy(teacher, mini_corpus, mini_codebook, [tiny_cfg])
        w = tiny_cfg.vic
        for b in log.steps:
            assert b.l_vic == pytest.approx(w.lam * b.s + w.mu * b.v + w.nu * b.c, abs=1e-12)
            assert b.l_tot == pytest.approx(b.l_m + w.alpha * b.l_vic, abs=1e-12)

    def test_reduction_to_masked_prediction_only_loop(self, teacher, mini_corpus,
                                                      mini_codebook, tiny_cfg):
        """Flags all off: step losses are bit-identical to an independent loop
        that never touches the regularizer machinery."""
        cfg = replace(tiny_cfg, use_inv=False, use_var=False, use_cov=False)
        [(student, log)] = pretrain_noisy(teacher, mini_corpus, mini_codebook, [cfg])

        ref_losses = _reference_lm_only_loop(teacher, mini_corpus, mini_codebook, cfg)
        got_losses = [b.l_m for b in log.steps]
        assert got_losses == ref_losses
        for b in log.steps:
            assert b.s == b.v == b.c == 0.0 and b.l_vic == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self, teacher, mini_corpus, mini_codebook, tiny_cfg):
        # step size near the float64 ceiling overflows activations within a few steps
        bad = replace(tiny_cfg, learning_rate=1e160, steps=6)
        with pytest.raises(TrainingDivergedError):
            pretrain_noisy(teacher, mini_corpus, mini_codebook, [bad])

    def test_full_run_determinism(self, teacher, mini_corpus, mini_codebook, tiny_cfg):
        [(a, la)] = pretrain_noisy(teacher, mini_corpus, mini_codebook, [tiny_cfg])
        [(b, lb)] = pretrain_noisy(teacher, mini_corpus, mini_codebook, [tiny_cfg])
        assert np.array_equal(a.to_vector(), b.to_vector())
        assert [x.l_tot for x in la.steps] == [x.l_tot for x in lb.steps]

    def test_lockstep_matches_separate_runs(self, teacher, mini_corpus, mini_codebook,
                                            tiny_cfg):
        """The four ablation configs trained together give, bit for bit, the
        students and logs of four single-config runs."""
        cfgs = [replace(tiny_cfg, steps=4, use_inv=inv, use_var=var, use_cov=cov)
                for _, (inv, var, cov) in ABLATION_CONFIGS]
        together = pretrain_noisy(teacher, mini_corpus, mini_codebook, cfgs)
        assert len(together) == len(cfgs)
        for cfg, (student, log) in zip(cfgs, together):
            [(alone, alone_log)] = pretrain_noisy(teacher, Corpus(mini_corpus.utterances),
                                                  mini_codebook, [cfg])
            assert student.to_vector().tobytes() == alone.to_vector().tobytes()
            assert [(b.l_m, b.s, b.v, b.c, b.l_vic, b.l_tot) for b in log.steps] == \
                [(b.l_m, b.s, b.v, b.c, b.l_vic, b.l_tot) for b in alone_log.steps]

    def test_training_leaves_shared_items_unchanged(self, teacher, mini_corpus,
                                                    mini_codebook, tiny_cfg):
        cfg = replace(tiny_cfg, steps=1)
        items = make_batch(mini_corpus, cfg.batch_utterances, 0, cfg.seed,
                           noise_kinds=cfg.noise_kinds, snr_range_db=cfg.snr_range_db)
        before = [(i.clean.copy(), i.noisy.copy()) for i in items]
        pretrain_noisy(teacher, mini_corpus, mini_codebook,
                       [cfg, replace(cfg, use_inv=False, use_var=False, use_cov=False)])
        # both runs trained on this very batch: the memo still holds it
        assert make_batch(mini_corpus, cfg.batch_utterances, 0, cfg.seed,
                          noise_kinds=cfg.noise_kinds, snr_range_db=cfg.snr_range_db) is items
        for item, (clean, noisy) in zip(items, before):
            assert np.array_equal(item.clean, clean)
            assert np.array_equal(item.noisy, noisy)

    def test_no_configs_rejected(self, teacher, mini_corpus, mini_codebook):
        with pytest.raises(ValueError):
            pretrain_noisy(teacher, mini_corpus, mini_codebook, [])


def _reference_lm_only_loop(teacher, corpus, cb, cfg):
    """Minimal masked-prediction-only trainer sharing only the seed-derivation
    helpers and primitive ops with the real loop."""
    state = teacher
    adam = AdamState.zeros(state.to_vector().size)
    losses = []
    codewords = {}
    for step in range(cfg.steps):
        items = make_batch(corpus, cfg.batch_utterances, step, cfg.seed,
                           noise_kinds=cfg.noise_kinds, snr_range_db=cfg.snr_range_db)
        per_item = []
        total_masked = 0
        for j, item in enumerate(items):
            if item.utt_index not in codewords:
                codewords[item.utt_index] = assign(cb, item.clean)
            for attempt in range(10000):
                seed = derive_seed(cfg.seed, _TAG_MASK, step, j, attempt)
                masked, spec = apply_mask(item.noisy, state.config, seed,
                                          state.params["mask_embedding"])
                if len(spec):
                    break
            reps, cache = forward(state, masked, training=True, mask=spec)
            logits = predict_codewords(state, reps)
            per_item.append((item, spec, cache, logits))
            total_masked += len(spec)
        l_m = 0.0
        grad = np.zeros(adam.m.size)
        for item, spec, cache, logits in per_item:
            loss_j, g_j = masked_prediction_loss(logits, codewords[item.utt_index], spec)
            w_j = len(spec) / total_masked
            l_m += w_j * loss_j
            grad += backward(cache, grad_logits=g_j * w_j)
        losses.append(l_m)
        vec, adam = adam_step(state.to_vector(), grad, adam, cfg.learning_rate)
        state = EncoderState.from_vector(state.config, vec)
    return losses


def _clean_stage_log(bench, seed):
    cfg = replace(bench["base_cfg"], steps=1500, seed=seed)
    return pretrain_clean(bench["train"], bench["cb"], cfg, enc_cfg=bench["enc_cfg"])[1]


@pytest.mark.slow
class TestReferenceConvergence:
    def test_clean_stage_final_loss_below_60_percent(self, bench):
        """On the benchmark corpus the clean stage converges below 0.6x its
        initial loss within 1500 steps, for three seeds, each trained in a
        process of its own (fork is safe: conftest pins BLAS to one thread)."""
        seeds = (10, 11, 12)
        with ProcessPoolExecutor(max_workers=len(seeds),
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            logs = list(pool.map(partial(_clean_stage_log, bench), seeds))
        for seed, log in zip(seeds, logs):
            ratio = log.steps[-1].l_m / log.steps[0].l_m
            assert ratio < 0.6, f"seed {seed}: ratio {ratio:.3f}"

    def test_noisy_stage_invariance_drops_30_percent(self, bench, ablation):
        """With the default weights the invariance term falls by at least 30%
        from the first step to the last, for three seeds. These runs are the
        ablation's full-configuration students: `pretrain_noisy` from the
        benchmark teacher with the benchmark config and every term on."""
        assert bench["base_cfg"].use_inv and bench["base_cfg"].use_var \
            and bench["base_cfg"].use_cov
        for seed in (1, 2, 3):
            log = ablation.logs[("lm+inv+var+cov", seed)]
            drop = 1.0 - log.steps[-1].s / log.steps[0].s
            assert drop >= 0.30, f"seed {seed}: drop {drop:.2%}"


class TestTrainLogCsv:
    def test_loss_csv_format(self, mini_corpus, mini_codebook, mini_encoder_config,
                             tiny_cfg, tmp_path):
        _, log = pretrain_clean(mini_corpus, mini_codebook, tiny_cfg,
                                enc_cfg=mini_encoder_config)
        path = tmp_path / "log.csv"
        log.write_loss_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "step,l_m,s,v,c,l_vic,l_tot"
        assert len(lines) == 1 + tiny_cfg.steps
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == log.steps[0].l_m

    def test_eval_rows_at_interval(self, mini_corpus, mini_codebook,
                                   mini_encoder_config, tiny_cfg, tmp_path):
        from vicspeech.analysis import make_train_eval_hook

        cfg = replace(tiny_cfg, eval_interval=4)
        hook = make_train_eval_hook(mini_corpus)
        _, log = pretrain_clean(mini_corpus, mini_codebook, cfg,
                                enc_cfg=mini_encoder_config, eval_hook=hook)
        assert [r.step for r in log.eval_rows] == [3, 7]
        path = tmp_path / "eval.csv"
        log.write_eval_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "step,probe_acc_clean,probe_acc_noisy,mean_channel_std"
        assert len(lines) == 3
        for row in log.eval_rows:
            assert 0.0 <= row.probe_acc_clean <= 1.0
            assert 0.0 <= row.probe_acc_noisy <= 1.0
            assert row.mean_channel_std > 0.0
