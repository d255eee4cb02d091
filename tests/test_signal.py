"""Corpus synthesis, noise families, SNR mixing, and feature extraction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vicspeech.signal import (
    MAX_VOCAB_SIZE,
    NOISE_KINDS,
    SNR_LIMIT_DB,
    FeatureSequence,
    Utterance,
    Waveform,
    build_corpus,
    extract_features,
    load_corpus,
    load_labels,
    load_manifest,
    measure_snr,
    mix_at_snr,
    read_wav,
    synth_noise,
    synth_utterance,
    write_wav,
    _BOUND_GRID,
    _Segment,
    _harmonics,
    _peak_bound,
    _render_segment,
    _voice_params,
)

SR = 16000


class TestSynthUtterance:
    def test_deterministic(self):
        a = synth_utterance(42, n_segments=5, vocab_size=8)
        b = synth_utterance(42, n_segments=5, vocab_size=8)
        assert np.array_equal(a.wave.samples, b.wave.samples)
        assert a.unit_labels == b.unit_labels

    def test_label_range_and_count(self):
        utt = synth_utterance(7, n_segments=10, vocab_size=8)
        assert len(utt.unit_labels) == 10
        assert all(0 <= sym < 8 for sym, _, _ in utt.unit_labels)

    def test_segments_tile_waveform(self):
        utt = synth_utterance(3, n_segments=6, vocab_size=4)
        assert utt.unit_labels[0][1] == 0
        assert utt.unit_labels[-1][2] == len(utt.wave)

    def test_segment_durations_in_range(self):
        utt = synth_utterance(11, n_segments=20, vocab_size=4)
        for _, start, end in utt.unit_labels:
            dur = (end - start) / SR
            assert 0.08 - 1e-6 <= dur <= 0.20 + 1e-6

    def test_same_symbol_segments_are_closer(self):
        """Mean filterbank distance between same-symbol segment centroids is
        smaller than between different-symbol centroids, across utterances."""
        utts = [synth_utterance(100 + i, n_segments=12, vocab_size=4) for i in range(4)]
        centroids = []  # (utt_index, symbol, mean feature vector)
        for ui, utt in enumerate(utts):
            feats = extract_features(utt)
            for sym in set(s for s, _, _ in utt.unit_labels):
                rows = feats.frames[feats.frame_labels == sym]
                if rows.shape[0]:
                    centroids.append((ui, sym, rows.mean(axis=0)))
        same, diff = [], []
        for i in range(len(centroids)):
            for j in range(i + 1, len(centroids)):
                ui, si, ci = centroids[i]
                uj, sj, cj = centroids[j]
                if ui == uj:
                    continue
                d = float(np.linalg.norm(ci - cj))
                (same if si == sj else diff).append(d)
        assert same and diff
        assert np.mean(same) < np.mean(diff)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            synth_utterance(0, n_segments=0, vocab_size=4)
        with pytest.raises(ValueError):
            synth_utterance(0, n_segments=1, vocab_size=1)
        with pytest.raises(ValueError):
            synth_utterance(0, n_segments=1, vocab_size=MAX_VOCAB_SIZE + 1)

    def test_every_symbol_has_its_own_voicing(self):
        voicings = {_voice_params(sym) for sym in range(MAX_VOCAB_SIZE)}
        assert len(voicings) == MAX_VOCAB_SIZE


class TestSynthNoise:
    def test_deterministic(self):
        a = synth_noise("babble", 5, 8000)
        b = synth_noise("babble", 5, 8000)
        assert np.array_equal(a.samples, b.samples)

    def test_exact_length(self):
        for kind in ("babble", "music", "natural"):
            assert len(synth_noise(kind, 1, 16000)) == 16000

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_silent_draw_rejected_by_name(self, seed):
        """Every babble voice starts on a zero fade sample, so one sample of
        babble is silent: rejected as such, before any division by its peak."""
        with pytest.raises(ValueError, match="silent"):
            synth_noise("babble", seed, 1)

    def test_natural_spectral_slope_negative(self):
        """1/f shaping: more energy in a low band than in a high band."""
        wav = synth_noise("natural", 9, 32768)
        spectrum = np.abs(np.fft.rfft(wav.samples)) ** 2
        freqs = np.fft.rfftfreq(32768, 1.0 / SR)
        low = spectrum[(freqs >= 100) & (freqs < 800)].sum()
        high = spectrum[(freqs >= 2000) & (freqs < 6000)].sum()
        assert low > high

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            synth_noise("radio", 0, 1000)

    def test_peak_bounded(self):
        for kind in ("babble", "music", "natural"):
            wav = synth_noise(kind, 3, 12000)
            assert np.abs(wav.samples).max() <= 1.0


# The renderer before partial rendering, kept verbatim as the bitwise
# reference: every segment is rendered and the whole stream normalized.

def _ref_harmonic_segment(rng, symbol, n, sample_rate):
    f0, formant = _voice_params(symbol)
    t = np.arange(n) / sample_rate
    n_harm = max(1, min(int(3800.0 / f0), 24))
    h = np.arange(1, n_harm + 1)
    amps = np.exp(-0.5 * ((h * f0 - formant) / 260.0) ** 2) + 0.10 / h
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_harm)
    x = np.zeros(n)
    for i in range(n_harm):
        x += amps[i] * np.sin(2.0 * math.pi * f0 * h[i] * t + phases[i])
    x *= rng.uniform(0.5, 1.0)
    fade = max(1, min(int(0.005 * sample_rate), n // 4))
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(fade) / fade))
    x[:fade] *= ramp
    x[-fade:] *= ramp[::-1]
    return x


def _ref_synth_utterance(seed, n_segments=12, vocab_size=16, sample_rate=SR):
    rng = np.random.default_rng(seed)
    pieces = []
    labels = []
    pos = 0
    sym = int(rng.integers(vocab_size))
    for _ in range(n_segments):
        dur = rng.uniform(0.08, 0.20)
        n = int(round(dur * sample_rate))
        pieces.append(_ref_harmonic_segment(rng, sym, n, sample_rate))
        labels.append((sym, pos, pos + n))
        pos += n
        if rng.random() < 0.7:
            sym = (sym + 1) % vocab_size
        else:
            sym = int(rng.integers(vocab_size))
    samples = np.concatenate(pieces)
    samples *= 0.95 / np.abs(samples).max()
    return samples, labels


def _ref_speech_stream(seed, n_samples, sample_rate):
    n_segments = math.ceil(n_samples / (0.08 * sample_rate)) + 1
    samples, _ = _ref_synth_utterance(seed, n_segments=n_segments, vocab_size=8,
                                      sample_rate=sample_rate)
    return samples[:n_samples]


def _ref_babble(seed, n, sample_rate):
    """synth_noise("babble", ...) through the reference renderer."""
    rng = np.random.default_rng(seed)
    n_voices = int(rng.integers(3, 9))
    x = np.zeros(n)
    for _ in range(n_voices):
        x += _ref_speech_stream(int(rng.integers(2**31)), n, sample_rate)
    return x * (0.95 / np.abs(x).max())


def _first_voice_first_end(seed, sample_rate):
    # where the first babble voice's first segment ends: n at a segment boundary
    rng = np.random.default_rng(seed)
    rng.integers(3, 9)
    _, labels = _ref_synth_utterance(int(rng.integers(2**31)), n_segments=1, vocab_size=8,
                                     sample_rate=sample_rate)
    return labels[0][2]


_SEEDS = st.integers(0, 2**63 - 1)
_RATES = st.sampled_from([8000, 16000, 22050])


class TestPartialRenderIsBitwise:
    @settings(max_examples=8, deadline=None)
    @given(seed=_SEEDS, n=st.integers(1, 60000), sr=_RATES, at_boundary=st.booleans())
    @example(seed=0, n=1, sr=16000, at_boundary=False)
    @example(seed=5, n=500, sr=8000, at_boundary=False)
    @example(seed=7, n=1, sr=22050, at_boundary=True)
    def test_babble_equals_reference(self, seed, n, sr, at_boundary):
        if at_boundary:
            n = _first_voice_first_end(seed, sr)
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = _ref_babble(seed, n, sr)
            if n == 1:  # every voice starts on a zero fade sample: silent, so rejected
                assert np.isnan(ref).all()
                with pytest.raises(ValueError):
                    synth_noise("babble", seed, n, sr)
                return
        assert synth_noise("babble", seed, n, sr).samples.tobytes() == ref.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(seed=_SEEDS, n_segments=st.integers(1, 12), vocab_size=st.integers(2, MAX_VOCAB_SIZE),
           sr=_RATES)
    def test_full_utterance_equals_reference(self, seed, n_segments, vocab_size, sr):
        utt = synth_utterance(seed, n_segments, vocab_size, sr)
        samples, labels = _ref_synth_utterance(seed, n_segments, vocab_size, sr)
        assert utt.wave.samples.tobytes() == samples.tobytes()
        assert utt.unit_labels == labels

    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS, n_segments=st.integers(1, 12), sr=_RATES, data=st.data())
    def test_prefix_equals_full_utterance_start(self, seed, n_segments, sr, data):
        full = synth_utterance(seed, n_segments, 8, sr)
        ends = [end for _, _, end in full.unit_labels]
        n = data.draw(st.one_of(st.integers(1, len(full.wave)), st.sampled_from(ends)))
        part = synth_utterance(seed, n_segments, 8, sr, n_samples=n)
        assert part.wave.samples.tobytes() == full.wave.samples[:n].tobytes()
        assert part.unit_labels == [(sym, start, min(end, n))
                                    for sym, start, end in full.unit_labels if start < n]

    @pytest.mark.parametrize("n_samples", [0, -1, 10**6])
    def test_n_samples_out_of_range_rejected(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            synth_utterance(3, n_segments=4, vocab_size=8, n_samples=n_samples)


class TestPeakBound:
    @settings(max_examples=40, deadline=None)
    @given(symbol=st.integers(0, MAX_VOCAB_SIZE - 1), sr=_RATES,
           phase_seed=st.integers(0, 2**32 - 1), gain=st.floats(0.5, 1.0, exclude_max=True),
           data=st.data())
    @example(symbol=0, sr=22050, phase_seed=0, gain=0.999, data=None)  # f0 = 90 Hz, 24 harmonics
    def test_bound_covers_rendered_peak(self, symbol, sr, phase_seed, gain, data):
        """Worst cases ride along: the most harmonics (f0 = 90 Hz), the
        shortest segment, and segments shorter than both fades together."""
        n_harm = _harmonics(symbol)[1].size
        phases = np.random.default_rng(phase_seed).uniform(0.0, 2.0 * math.pi, n_harm)
        shortest, longest = round(0.08 * sr), round(0.20 * sr)
        lengths = [1, 2, 3, shortest, longest]
        if data is not None:
            lengths.append(data.draw(st.integers(1, longest)))
        for n in lengths:
            seg = _Segment(symbol, n, phases, gain)
            assert np.abs(_render_segment(seg, sr)).max() <= _peak_bound(seg)

    @settings(max_examples=10, deadline=None)
    @given(symbol=st.integers(0, MAX_VOCAB_SIZE - 1), phase_seed=st.integers(0, 2**32 - 1),
           gain=st.floats(0.5, 1.0, exclude_max=True))
    def test_bound_is_the_documented_formula(self, symbol, phase_seed, gain):
        """The Lipschitz term and both margins are each part of the bound."""
        _, h, amps = _harmonics(symbol)
        phases = np.random.default_rng(phase_seed).uniform(0.0, 2.0 * math.pi, h.size)
        grid = [abs(sum(a * math.sin(k * 2.0 * math.pi * g / _BOUND_GRID + p)
                        for a, k, p in zip(amps, h, phases)))
                for g in range(_BOUND_GRID)]
        lipschitz = math.pi / _BOUND_GRID * sum(a * k for a, k in zip(amps, h))
        want = gain * (max(grid) + lipschitz) * (1.0 + 1e-6) + 1e-9
        got = _peak_bound(_Segment(symbol, 1000, phases, gain))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestMixAtSnr:
    def test_gain_formula_hand_value(self):
        """P_clean=0.04, P_noise=0.01, snr=10 dB -> g = sqrt(0.4)."""
        clean = Waveform(SR, np.full(1000, 0.2))
        noise = Waveform(SR, np.tile([0.1, -0.1], 500))
        ns = mix_at_snr(clean, noise, 10.0)
        assert ns.gain == pytest.approx(math.sqrt(0.4), rel=1e-12)
        assert ns.gain == pytest.approx(0.63246, abs=5e-6)

    def test_infinite_snr_is_clean_passthrough(self):
        clean = Waveform(SR, 0.5 * np.sin(np.linspace(0, 100, 2000)))
        noise = synth_noise("natural", 1, 2000)
        ns = mix_at_snr(clean, noise, float("inf"))
        assert np.array_equal(ns.mixed.samples, clean.samples)

    def test_measured_snr_matches_target(self):
        clean = synth_utterance(5, n_segments=4, vocab_size=4).wave
        noise = synth_noise("music", 2, len(clean))
        for target in (0.0, 7.3, 15.0):
            ns = mix_at_snr(clean, noise, target)
            noise_part = ns.mixed.samples * ns.peak_scale - clean.samples
            assert measure_snr(clean, noise_part) == pytest.approx(target, abs=1e-6)

    def test_silent_inputs_rejected(self):
        silent = Waveform(SR, np.zeros(100))
        tone = Waveform(SR, 0.1 * np.ones(100))
        with pytest.raises(ValueError):
            mix_at_snr(silent, tone, 5.0)
        with pytest.raises(ValueError):
            mix_at_snr(tone, silent, 5.0)

    def test_short_noise_rejected(self):
        clean = Waveform(SR, 0.1 * np.ones(200))
        noise = Waveform(SR, 0.1 * np.ones(100))
        with pytest.raises(ValueError):
            mix_at_snr(clean, noise, 5.0)

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan, 4000.0, -4000.0,
                                        SNR_LIMIT_DB + 0.5, -SNR_LIMIT_DB - 0.5])
    def test_snr_beyond_limit_rejected(self, snr_db):
        clean = Waveform(SR, np.full(100, 0.2))
        noise = Waveform(SR, np.tile([0.1, -0.1], 50))
        with pytest.raises(ValueError, match="snr_db must be"):
            mix_at_snr(clean, noise, snr_db)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("snr_db", [-SNR_LIMIT_DB, SNR_LIMIT_DB])
    def test_snr_at_limit_mixes(self, snr_db):
        noise = synth_noise("natural", 4, len(_SHORT_CLEAN))
        ns = mix_at_snr(_SHORT_CLEAN, noise, snr_db)
        assert 0.0 < ns.gain < math.inf
        assert np.abs(ns.mixed.samples).max() <= 1.0

    def test_mixed_stays_in_range(self):
        clean = synth_utterance(6, n_segments=4, vocab_size=4).wave
        noise = synth_noise("babble", 3, len(clean))
        ns = mix_at_snr(clean, noise, -10.0)  # heavy noise forces normalization
        assert np.abs(ns.mixed.samples).max() <= 1.0
        assert ns.peak_scale >= 1.0


# about 0.3 s of audio: babble costs about 80 ms per 1.5 s utterance (2-core x86 host)
_SHORT_CLEAN = synth_utterance(5, n_segments=2, vocab_size=4).wave


class TestMixAtSnrProperty:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(NOISE_KINDS), noise_seed=st.integers(0, 2**64 - 1),
           target=st.floats(-10.0, 20.0))
    def test_measured_snr_is_exact_and_mix_in_range(self, kind, noise_seed, target):
        noise = synth_noise(kind, noise_seed, len(_SHORT_CLEAN))
        ns = mix_at_snr(_SHORT_CLEAN, noise, target, kind)
        noise_part = ns.mixed.samples * ns.peak_scale - _SHORT_CLEAN.samples
        assert abs(measure_snr(_SHORT_CLEAN, noise_part) - target) <= 1e-6
        assert np.abs(ns.mixed.samples).max() <= 1.0


class TestMeasureSnr:
    def test_equal_power_is_zero_db(self):
        a = Waveform(SR, 0.3 * np.ones(100))
        b = Waveform(SR, -0.3 * np.ones(100))
        assert measure_snr(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_ten_to_one_power_is_ten_db(self):
        a = np.full(100, math.sqrt(10.0) * 0.1)
        b = np.full(100, 0.1)
        assert measure_snr(a, b) == pytest.approx(10.0, abs=1e-9)

    def test_silent_rejected(self):
        with pytest.raises(ValueError):
            measure_snr(np.zeros(10), np.ones(10))


class TestExtractFeatures:
    def test_frame_count(self):
        wav = Waveform(SR, 0.1 * np.sin(np.arange(16000) * 0.1))
        feats = extract_features(wav, frame_len=400, hop=160, n_filters=40)
        assert feats.frames.shape == (98, 40)

    def test_silence_hits_log_floor(self):
        wav = Waveform(SR, np.zeros(1600))
        feats = extract_features(wav)
        assert np.allclose(feats.frames, math.log(1e-10))

    def test_amplitude_doubling_shifts_by_log4(self):
        """Power quadruples when amplitude doubles: high-energy bins shift by
        log 4 (approximately: the log floor perturbs only empty bins)."""
        t = np.arange(16000) / SR
        tone = 0.25 * np.sin(2 * math.pi * 440.0 * t)
        f1 = extract_features(Waveform(SR, tone))
        f2 = extract_features(Waveform(SR, 2.0 * tone))
        hot = f1.frames > f1.frames.max() - 2.0
        shift = (f2.frames - f1.frames)[hot]
        assert np.allclose(shift, math.log(4.0), atol=1e-3)

    def test_frame_labels_from_segment_centers(self):
        utt = synth_utterance(13, n_segments=5, vocab_size=4)
        feats = extract_features(utt)
        assert feats.frame_labels is not None
        assert feats.frame_labels.size == feats.frames.shape[0]
        centers = np.arange(feats.frames.shape[0]) * 160 + 200
        for t, center in enumerate(centers):
            expected = next(sym for sym, s, e in utt.unit_labels if s <= center < e)
            assert feats.frame_labels[t] == expected

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            extract_features(Waveform(SR, np.zeros(100)), frame_len=400)


class TestWavIO:
    def test_round_trip(self, tmp_path):
        wav = synth_utterance(21, n_segments=3, vocab_size=4).wave
        path = tmp_path / "x.wav"
        write_wav(path, wav)
        back = read_wav(path)
        assert back.sample_rate == wav.sample_rate
        # int16 quantization error bound
        assert np.abs(back.samples - wav.samples).max() <= 1.0 / 32767.0

    def test_written_file_is_pcm16_mono(self, tmp_path):
        import wave as wavmod

        path = tmp_path / "y.wav"
        write_wav(path, Waveform(SR, 0.1 * np.ones(400)))
        with wavmod.open(str(path)) as fh:
            assert fh.getnchannels() == 1
            assert fh.getsampwidth() == 2
            assert fh.getframerate() == SR


class TestCorpus:
    def test_build_and_load_round_trip(self, tmp_path):
        manifest = build_corpus(tmp_path, n_utterances=3, corpus_seed=50,
                                vocab_size=4, n_segments=4)
        entries = load_manifest(manifest)
        assert len(entries) == 3
        utts = load_corpus(manifest)
        assert [u.id for u in utts] == ["utt0000", "utt0001", "utt0002"]
        # labels round trip
        labels = load_labels(tmp_path / entries[0].labels_relpath)
        assert labels == utts[0].unit_labels

    def test_manifest_format(self, tmp_path):
        manifest = build_corpus(tmp_path, n_utterances=2, corpus_seed=50,
                                vocab_size=4, n_segments=3)
        lines = manifest.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        fields = lines[0].split("\t")
        assert len(fields) == 4
        assert fields[0] == "utt0000"
        assert fields[2].isdigit()

    def test_per_utterance_seed_is_xor_of_corpus_seed_and_index(self, tmp_path):
        manifest = build_corpus(tmp_path, n_utterances=3, corpus_seed=77,
                                vocab_size=4, n_segments=3)
        utts = load_corpus(manifest)
        for i, utt in enumerate(utts):
            ref = synth_utterance(77 ^ i, n_segments=3, vocab_size=4)
            assert np.abs(utt.wave.samples - ref.wave.samples).max() <= 1.0 / 32767.0

    def test_rebuild_is_byte_identical(self, tmp_path):
        m1 = build_corpus(tmp_path / "a", n_utterances=2, corpus_seed=9,
                          vocab_size=4, n_segments=3)
        m2 = build_corpus(tmp_path / "b", n_utterances=2, corpus_seed=9,
                          vocab_size=4, n_segments=3)
        w1 = (tmp_path / "a" / "wav" / "utt0000.wav").read_bytes()
        w2 = (tmp_path / "b" / "wav" / "utt0000.wav").read_bytes()
        assert w1 == w2
        assert m1.read_text() == m2.read_text()


class TestTypes:
    def test_waveform_bounds_enforced(self):
        with pytest.raises(ValueError):
            Waveform(SR, np.array([1.5]))
        with pytest.raises(ValueError):
            Waveform(SR, np.array([np.nan]))

    def test_utterance_tiling_enforced(self):
        wav = Waveform(SR, np.zeros(100))
        with pytest.raises(ValueError):
            Utterance("u", wav, [(0, 0, 50), (1, 60, 100)])  # gap

    def test_feature_sequence_label_length_checked(self):
        with pytest.raises(ValueError):
            FeatureSequence(frames=np.zeros((4, 3)), frame_labels=np.zeros(3))
