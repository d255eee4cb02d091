"""Corpus synthesis, noise families, SNR mixing, and feature extraction."""

import math
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vicspeech.cli import _openblas_setter
from vicspeech.signal import (
    FRAME_LEN,
    MAX_VOCAB_SIZE,
    NOISE_KINDS,
    SAMPLE_RATE,
    SNR_LIMIT_DB,
    Utterance,
    Waveform,
    build_corpus,
    check_utterance,
    extract_features,
    frame_labels,
    load_corpus,
    load_labels,
    load_manifest,
    measure_snr,
    mix_at_snr,
    read_wav,
    synth_noise,
    synth_utterance,
    write_manifest,
    write_wav,
    ManifestEntry,
    _BOUND_GRID,
    _Segment,
    _draw_segment,
    _fade_ramp,
    _harmonics,
    _peak_bound,
    _phasors,
    _render,
    _segment_tables,
    _sinusoids,
    _tables,
    _voice_params,
)


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
            dur = (end - start) / SAMPLE_RATE
            assert 0.08 - 1e-6 <= dur <= 0.20 + 1e-6

    def test_same_symbol_segments_are_closer(self):
        """Mean filterbank distance between same-symbol segment centroids is
        smaller than between different-symbol centroids, across utterances."""
        utts = [synth_utterance(100 + i, n_segments=12, vocab_size=4) for i in range(4)]
        centroids = []  # (utt_index, symbol, mean feature vector)
        for ui, utt in enumerate(utts):
            feats = extract_features(utt.wave)
            labels = frame_labels(utt)
            for sym in set(s for s, _, _ in utt.unit_labels):
                rows = feats[labels == sym]
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
        freqs = np.fft.rfftfreq(32768, 1.0 / SAMPLE_RATE)
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


# References with the plain structure the renderer replaced: every segment of
# an utterance drawn, rendered and faded on its own, every babble voice
# rendered and normalized whole, every music chord and the tremolo written in
# place. Their sums of sinusoids go through the package's kernel, with tables
# built afresh for each piece, so they equal the package bit for bit;
# TestSinusoidKernel holds the kernel itself to the per-sample loop it replaced.

# a speech segment's blocks: isqrt of its longest length (3200 samples) wide,
# and enough of them to cover it
_SEGMENT_BLOCK = math.isqrt(round(0.20 * SAMPLE_RATE))
_SEGMENT_BLOCKS = -(-round(0.20 * SAMPLE_RATE) // _SEGMENT_BLOCK)


def _whole_piece_tables(omega, n):
    # a music chord's or the tremolo's: blocks of isqrt(n) samples
    b = math.isqrt(n)
    return _tables(omega, b, -(-n // b))


def _ref_harmonic_segment(rng, symbol, n, sample_rate):
    f0, formant = _voice_params(symbol)
    n_harm = max(1, min(int(3800.0 / f0), 24))
    h = np.arange(1, n_harm + 1)
    amps = np.exp(-0.5 * ((h * f0 - formant) / 260.0) ** 2) + 0.10 / h
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_harm)
    x = np.empty(n)
    tables = _tables(2.0 * math.pi * f0 * h, _SEGMENT_BLOCK, _SEGMENT_BLOCKS)
    _sinusoids(tables, _phasors(amps, phases), x)
    x *= rng.uniform(0.5, 1.0)
    fade = max(1, min(int(0.005 * sample_rate), n // 4))
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(fade) / fade))
    x[:fade] *= ramp
    x[-fade:] *= ramp[::-1]
    return x


def _ref_synth_utterance(seed, n_segments=12, vocab_size=16, sample_rate=SAMPLE_RATE):
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


def _ref_music(seed, n):
    """synth_noise("music", ...) with each whole chord written in place, then
    the tremolo."""
    rng = np.random.default_rng(seed)
    roots = 110.0 * 2.0 ** (np.array([0, 3, 5, 7, 10, 12]) / 12.0)
    ratios = np.array([1.0, 1.25, 1.5])
    harmonics = np.arange(1, 6)
    x = np.empty(n)
    pos = 0
    while pos < n:
        dur = min(int(rng.uniform(0.6, 1.4) * SAMPLE_RATE), n - pos)
        root = float(rng.choice(roots)) * float(rng.choice([1.0, 2.0]))
        freqs = (root * np.outer(ratios, harmonics)).ravel()
        amps = np.tile(1.0 / harmonics, ratios.size)
        keep = freqs < 4000.0
        freqs, amps = freqs[keep], amps[keep]
        phases = rng.uniform(0.0, 2.0 * math.pi, size=freqs.size)
        omega = 2.0 * math.pi * freqs
        _sinusoids(_whole_piece_tables(omega, dur), _phasors(amps, phases), x[pos : pos + dur])
        pos += dur
    omega = np.array([2.0 * math.pi * rng.uniform(0.3, 1.0)])
    phase = np.array([rng.uniform(0.0, 2.0 * math.pi)])
    tremolo = np.empty(n)
    _sinusoids(_whole_piece_tables(omega, n), _phasors(np.array([0.45]), phase), tremolo)
    x *= tremolo + 0.55
    return x * (0.95 / np.abs(x).max())


_SEEDS = st.integers(0, 2**63 - 1)


class TestPartialRenderIsBitwise:
    @settings(max_examples=8, deadline=None)
    @given(seed=_SEEDS, n=st.integers(1, 60000), at_boundary=st.booleans())
    @example(seed=0, n=1, at_boundary=False)
    @example(seed=5, n=500, at_boundary=False)
    @example(seed=7, n=1, at_boundary=True)
    @example(seed=11, n=23520, at_boundary=False)  # 3 voices
    @example(seed=0, n=23520, at_boundary=False)  # 8 voices
    def test_babble_equals_reference(self, seed, n, at_boundary):
        """Each voice's crop, and its peak found in rounds across the voices,
        equal the whole-utterance renderer's."""
        if at_boundary:
            n = _first_voice_first_end(seed, SAMPLE_RATE)
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = _ref_babble(seed, n, SAMPLE_RATE)
            if n == 1:  # every voice starts on a zero fade sample: silent, so rejected
                assert np.isnan(ref).all()
                with pytest.raises(ValueError):
                    synth_noise("babble", seed, n)
                return
        assert synth_noise("babble", seed, n).samples.tobytes() == ref.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(seed=_SEEDS, n_segments=st.integers(1, 12), vocab_size=st.integers(2, MAX_VOCAB_SIZE))
    def test_full_utterance_equals_reference(self, seed, n_segments, vocab_size):
        utt = synth_utterance(seed, n_segments, vocab_size)
        samples, labels = _ref_synth_utterance(seed, n_segments, vocab_size, SAMPLE_RATE)
        assert utt.wave.samples.tobytes() == samples.tobytes()
        assert utt.unit_labels == labels


def _loop_sinusoids(omega, amps, phases, n, dtype):
    """The per-sample loop that the kernel replaced, in `dtype`: one `sin`
    per partial per sample, the partials added in order."""
    t = np.arange(n).astype(dtype) / dtype(SAMPLE_RATE)
    x = np.zeros(n, dtype)
    for w, a, p in zip(omega.astype(dtype), amps.astype(dtype), phases.astype(dtype)):
        x += a * np.sin(w * t + p)
    return x


# speech segment lengths at the edges of the tables: one sample, one block,
# one block and a sample, the shortest and the longest segment
_TABLE_EDGES = (1, _SEGMENT_BLOCK, _SEGMENT_BLOCK + 1, round(0.08 * SAMPLE_RATE),
                round(0.20 * SAMPLE_RATE))


def _kernel_draws():
    """(tables, omega, amps, phases, n): speech segments of every length in
    `_TABLE_EDGES` and 20 more of 1 to 3200 samples, on the symbols' cached
    tables; then 20 whole music chords of 0.6 to 1.4 s and 5 tremolos of up
    to 60000 samples, as `_music` draws them, on tables of their own."""
    rng = np.random.default_rng(2024)
    lengths = [*_TABLE_EDGES, *rng.integers(1, 3201, 20)]
    for n in lengths:
        symbol = int(rng.integers(MAX_VOCAB_SIZE))
        omega, _, amps = _harmonics(symbol)
        yield _segment_tables(symbol), omega, amps, \
            rng.uniform(0.0, 2.0 * math.pi, omega.size), int(n)
    for _ in range(20):
        root = 110.0 * 2.0 ** (rng.choice([0, 3, 5, 7, 10, 12]) / 12.0) * rng.choice([1.0, 2.0])
        freqs = (root * np.outer([1.0, 1.25, 1.5], np.arange(1, 6))).ravel()
        amps = np.tile(1.0 / np.arange(1, 6), 3)[freqs < 4000.0]
        omega = 2.0 * math.pi * freqs[freqs < 4000.0]
        n = int(rng.uniform(0.6, 1.4) * SAMPLE_RATE)
        yield _whole_piece_tables(omega, n), omega, amps, \
            rng.uniform(0.0, 2.0 * math.pi, omega.size), n
    for _ in range(5):
        omega, n = np.array([2.0 * math.pi * rng.uniform(0.3, 1.0)]), int(rng.integers(1, 60001))
        yield _whole_piece_tables(omega, n), omega, np.array([0.45]), \
            rng.uniform(0.0, 2.0 * math.pi, 1), n


# The bound on the kernel's error. Over `_kernel_draws` the kernel's largest
# error was 9.9e-13 on speech, 3.3e-12 on music chords and 6.6e-16 on
# tremolos, and that of the float64 per-sample loop it replaced 1.1e-12 on
# speech and 4.5e-12 on chords (x86-64, numpy 2.4.6): both are the rounding
# of sin arguments of up to 2 pi 4000 Hz x 1.4 s.
_KERNEL_ERROR = 1e-11


class TestSinusoidKernel:
    def test_within_the_bound_of_the_long_double_loop(self):
        """Speech segments at the tables' edges, whole music chords and tremolos."""
        for tables, omega, amps, phases, n in _kernel_draws():
            out = np.empty(n)
            _sinusoids(tables, _phasors(amps, phases), out)
            exact = _loop_sinusoids(omega, amps, phases, n, np.longdouble)
            assert float(np.abs(out - exact).max()) <= _KERNEL_ERROR, (n, omega.size)

    def test_a_segment_longer_than_the_tables_is_rejected_by_length(self):
        n = _SEGMENT_BLOCK * _SEGMENT_BLOCKS + 1
        seg = _draw_segment(np.random.default_rng(0), 5, n)
        with pytest.raises(ValueError, match=f"a piece of {n} samples is longer than its tables"):
            _render([seg])

    def test_cached_tables_are_read_only(self):
        offsets, starts = _segment_tables(5)
        assert offsets.shape == (2 * _harmonics(5)[0].size, _SEGMENT_BLOCK)
        assert starts.shape == (_SEGMENT_BLOCKS, 2 * _harmonics(5)[0].size)
        for table in (offsets, starts, _fade_ramp(80)):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0


class TestPeakBound:
    @settings(max_examples=40, deadline=None)
    @given(symbol=st.integers(0, MAX_VOCAB_SIZE - 1), phase_seed=st.integers(0, 2**32 - 1),
           gain=st.floats(0.5, 1.0, exclude_max=True), data=st.data())
    @example(symbol=0, phase_seed=0, gain=0.999, data=None)  # f0 = 90 Hz, 24 harmonics
    def test_bound_covers_rendered_peak(self, symbol, phase_seed, gain, data):
        """Worst cases ride along: the most harmonics (f0 = 90 Hz), the
        shortest segment, and segments shorter than both fades together."""
        n_harm = _harmonics(symbol)[1].size
        phases = np.random.default_rng(phase_seed).uniform(0.0, 2.0 * math.pi, n_harm)
        shortest, longest = round(0.08 * SAMPLE_RATE), round(0.20 * SAMPLE_RATE)
        lengths = [1, 2, 3, shortest, longest]
        if data is not None:
            lengths.append(data.draw(st.integers(1, longest)))
        for n in lengths:
            seg = _Segment(symbol, n, phases, gain)
            assert np.abs(_render([seg])[0]).max() <= _peak_bound(seg)

    def test_bound_covers_the_longest_segment_of_every_symbol(self):
        rng = np.random.default_rng(3200)
        for symbol in range(MAX_VOCAB_SIZE):
            seg = _draw_segment(rng, symbol, round(0.20 * SAMPLE_RATE))
            assert np.abs(_render([seg])[0]).max() <= _peak_bound(seg), symbol

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


def _in_forked_child(fn, timeout=60.0):
    """fn() run in a child forked from this process, which must answer
    within `timeout` seconds."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        try:
            send.send(("ok", fn()))
        except BaseException as exc:
            send.send(("error", repr(exc)))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert recv.poll(timeout), f"the forked child did not answer in {timeout} s"
        status, value = recv.recv()
    finally:
        if proc.is_alive():
            proc.kill()
        proc.join()
    assert status == "ok", value
    return value


def _synthesis_bytes():
    """Babble, music and an utterance; the 23520-sample music has chords
    long enough for OpenBLAS to split their products across threads."""
    out = [synth_noise(kind, seed, 6000).samples.tobytes()
           for kind in ("babble", "music") for seed in (3, 4)]
    out.append(synth_noise("music", 5, 23520).samples.tobytes())
    out.append(synth_utterance(9, 20, 8).wave.samples.tobytes())
    out.append(synth_noise("babble", 9, 5000).samples.tobytes())
    return out


def _synthesis_bytes_at_default_blas_threads():
    _openblas_setter()(os.cpu_count() or 1)
    return _synthesis_bytes()


class _FailingPiece:
    """A piece whose rendering raises."""

    n = 100

    def render(self, out):
        raise RuntimeError("failing piece")


class TestRenderBytes:
    """The kernel's matrix product runs in BLAS, and synthesis may be called
    from several threads: the bytes equal the references above at any BLAS
    thread count and with several callers at once."""

    @settings(max_examples=15, deadline=None)
    @given(pieces=st.lists(st.tuples(st.integers(0, MAX_VOCAB_SIZE - 1), st.integers(1, 3200),
                                     st.integers(0, 2**32 - 1)), min_size=1, max_size=9))
    @example(pieces=[(0, 3200, 0), (47, 1, 1), (5, 56, 2), (12, 57, 3)])  # the tables' edges
    def test_segments_equal_reference(self, pieces):
        segs = [_draw_segment(np.random.default_rng(seed), sym, n) for sym, n, seed in pieces]
        want = [_ref_harmonic_segment(np.random.default_rng(seed), sym, n, SAMPLE_RATE)
                for sym, n, seed in pieces]
        assert [x.tobytes() for x in _render(segs)] == [x.tobytes() for x in want]

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 60000))
    @example(seed=0, n=23520)
    @example(seed=1, n=23520)
    @example(seed=2, n=23520)
    @example(seed=3, n=23520)
    @example(seed=4, n=23520)
    @example(seed=5, n=23520)
    @example(seed=6, n=1)  # a one-sample chord and tremolo
    def test_music_equals_its_whole_chords(self, seed, n):
        assert synth_noise("music", seed, n).samples.tobytes() == _ref_music(seed, n).tobytes()

    @pytest.mark.skipif(_openblas_setter() is None, reason="numpy here has no bundled OpenBLAS")
    def test_blas_threads_move_no_byte(self):
        """One BLAS thread, as `cli.run` and this suite pin it, and
        OpenBLAS's default of one per CPU, in a forked child."""
        assert _in_forked_child(_synthesis_bytes_at_default_blas_threads) == _synthesis_bytes()

    def test_concurrent_callers_get_the_same_bytes(self):
        """More callers than cores, switching often: synthesis keeps no
        state that one caller could change under another."""
        want = _synthesis_bytes()
        got = [None] * 4

        def call(k):
            got[k] = _synthesis_bytes()

        callers = [threading.Thread(target=call, args=(k,)) for k in range(len(got))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == [want] * len(got)

    def test_a_failing_piece_raises_and_the_next_render_is_unchanged(self):
        """The renderer, which works on the calling thread, hands a piece's
        exception to its caller and renders the next call's pieces as before."""
        segs = [_draw_segment(np.random.default_rng(seed), 3, 2000) for seed in range(3)]
        for pieces in ([segs[0], _FailingPiece()], [_FailingPiece(), segs[0]]):
            with pytest.raises(RuntimeError, match="failing piece"):
                _render(pieces)
        want = [_ref_harmonic_segment(np.random.default_rng(seed), 3, 2000, SAMPLE_RATE)
                for seed in range(3)]
        assert [x.tobytes() for x in _render(segs)] == [x.tobytes() for x in want]


class TestMixAtSnr:
    def test_gain_formula_hand_value(self):
        """P_clean=0.04, P_noise=0.01, snr=10 dB -> g = sqrt(0.4)."""
        clean = Waveform(np.full(1000, 0.2))
        noise = Waveform(np.tile([0.1, -0.1], 500))
        ns = mix_at_snr(clean, noise, 10.0)
        assert ns.gain == pytest.approx(math.sqrt(0.4), rel=1e-12)
        assert ns.gain == pytest.approx(0.63246, abs=5e-6)

    def test_measured_snr_matches_target(self):
        clean = synth_utterance(5, n_segments=4, vocab_size=4).wave
        noise = synth_noise("music", 2, len(clean))
        for target in (0.0, 7.3, 15.0):
            ns = mix_at_snr(clean, noise, target)
            noise_part = ns.mixed.samples * ns.peak_scale - clean.samples
            assert measure_snr(clean.samples, noise_part) == pytest.approx(target, abs=1e-6)

    def test_silent_inputs_rejected(self):
        silent = Waveform(np.zeros(100))
        tone = Waveform(0.1 * np.ones(100))
        with pytest.raises(ValueError):
            mix_at_snr(silent, tone, 5.0)
        with pytest.raises(ValueError):
            mix_at_snr(tone, silent, 5.0)

    def test_short_noise_rejected(self):
        clean = Waveform(0.1 * np.ones(200))
        noise = Waveform(0.1 * np.ones(100))
        with pytest.raises(ValueError):
            mix_at_snr(clean, noise, 5.0)

    @pytest.mark.parametrize("snr_db", [math.inf, -math.inf, math.nan, 4000.0, -4000.0,
                                        SNR_LIMIT_DB + 0.5, -SNR_LIMIT_DB - 0.5])
    def test_snr_beyond_limit_rejected(self, snr_db):
        clean = Waveform(np.full(100, 0.2))
        noise = Waveform(np.tile([0.1, -0.1], 50))
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


# about 0.3 s of audio: babble costs about 16 ms per 1.5 s utterance (2-core x86 host)
_SHORT_CLEAN = synth_utterance(5, n_segments=2, vocab_size=4).wave


class TestMixAtSnrProperty:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(NOISE_KINDS), noise_seed=st.integers(0, 2**64 - 1),
           target=st.floats(-10.0, 20.0))
    def test_measured_snr_is_exact_and_mix_in_range(self, kind, noise_seed, target):
        noise = synth_noise(kind, noise_seed, len(_SHORT_CLEAN))
        ns = mix_at_snr(_SHORT_CLEAN, noise, target)
        noise_part = ns.mixed.samples * ns.peak_scale - _SHORT_CLEAN.samples
        assert abs(measure_snr(_SHORT_CLEAN.samples, noise_part) - target) <= 1e-6
        assert np.abs(ns.mixed.samples).max() <= 1.0


class TestMeasureSnr:
    def test_equal_power_is_zero_db(self):
        a = 0.3 * np.ones(100)
        b = -0.3 * np.ones(100)
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
        wav = Waveform(0.1 * np.sin(np.arange(16000) * 0.1))
        feats = extract_features(wav)
        assert feats.shape == (98, 40)

    def test_silence_hits_log_floor(self):
        wav = Waveform(np.zeros(1600))
        feats = extract_features(wav)
        assert np.allclose(feats, math.log(1e-10))

    def test_amplitude_doubling_shifts_by_log4(self):
        """Power quadruples when amplitude doubles: high-energy bins shift by
        log 4 (approximately: the log floor perturbs only empty bins)."""
        t = np.arange(16000) / SAMPLE_RATE
        tone = 0.25 * np.sin(2 * math.pi * 440.0 * t)
        f1 = extract_features(Waveform(tone))
        f2 = extract_features(Waveform(2.0 * tone))
        hot = f1 > f1.max() - 2.0
        shift = (f2 - f1)[hot]
        assert np.allclose(shift, math.log(4.0), atol=1e-3)

    def test_frame_labels_from_segment_centers(self):
        utt = synth_utterance(13, n_segments=5, vocab_size=4)
        labels = frame_labels(utt)
        assert labels.size == extract_features(utt.wave).shape[0]
        centers = np.arange(labels.size) * 160 + 200
        for t, center in enumerate(centers):
            expected = next(sym for sym, s, e in utt.unit_labels if s <= center < e)
            assert labels[t] == expected

    @settings(max_examples=60, deadline=None)
    @given(n_samples=st.integers(1, 3000), data=st.data())
    def test_one_label_per_feature_row(self, n_samples, data):
        """`frame_labels` gives exactly one label per row of `extract_features`
        at every length, and both reject a waveform shorter than one frame."""
        cuts = sorted(data.draw(st.sets(st.integers(1, n_samples - 1), max_size=6))
                      if n_samples > 1 else [])
        bounds = [0, *cuts, n_samples]
        segments = [(k % 3, a, b) for k, (a, b) in enumerate(zip(bounds, bounds[1:]))]
        rng = np.random.default_rng(n_samples)
        utt = Utterance("u", Waveform(rng.uniform(-0.5, 0.5, n_samples)), segments)
        if n_samples < FRAME_LEN:
            for call in (lambda: extract_features(utt.wave), lambda: frame_labels(utt)):
                with pytest.raises(ValueError, match="shorter than one frame"):
                    call()
            return
        labels = frame_labels(utt)
        assert labels.shape == (extract_features(utt.wave).shape[0],)
        assert labels.dtype == np.int64

    def test_frame_labels_of_unlabelled_utterance_name_it(self):
        utt = Utterance("utt0007", Waveform(np.zeros(800)), [])
        with pytest.raises(ValueError, match="utt0007"):
            frame_labels(utt)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            extract_features(Waveform(np.zeros(100)))


class TestWavIO:
    def test_round_trip(self, tmp_path):
        wav = synth_utterance(21, n_segments=3, vocab_size=4).wave
        path = tmp_path / "x.wav"
        write_wav(path, wav)
        back = read_wav(path)
        # int16 quantization error bound
        assert np.abs(back.samples - wav.samples).max() <= 1.0 / 32767.0

    def test_written_file_is_pcm16_mono(self, tmp_path):
        import wave as wavmod

        path = tmp_path / "y.wav"
        write_wav(path, Waveform(0.1 * np.ones(400)))
        with wavmod.open(str(path)) as fh:
            assert fh.getnchannels() == 1
            assert fh.getsampwidth() == 2
            assert fh.getframerate() == SAMPLE_RATE

    def test_other_rate_rejected_by_name(self, tmp_path):
        import wave as wavmod

        path = tmp_path / "z.wav"
        with wavmod.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(bytes(800))
        with pytest.raises(ValueError, match=f"{path} is sampled at 8000 Hz, not 16000 Hz"):
            read_wav(path)


class TestCorpus:
    def test_build_and_load_round_trip(self, tmp_path):
        manifest = build_corpus(tmp_path, n_utterances=3, corpus_seed=50,
                                vocab_size=4, n_segments=4)
        entries = [entry for _, entry in load_manifest(manifest)]
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

    @pytest.mark.parametrize("samples, error", [
        (np.zeros(1000), "is silent: no SNR is defined for it"),
        (np.full(300, 0.5), "of 300 samples is shorter than one frame (400)")])
    def test_utterance_check_names_manifest_line_and_wav(self, tmp_path, samples, error):
        """`load_corpus` runs `check_utterance`, which `trainer.Corpus` runs too."""
        utt = Utterance("utt0000", Waveform(samples), [(0, 0, samples.size)])
        with pytest.raises(ValueError) as info:
            check_utterance(utt, "utterance utt0000")
        assert str(info.value) == f"utterance utt0000 {error}"
        (tmp_path / "wav").mkdir()
        write_wav(tmp_path / "wav" / "utt0000.wav", utt.wave)
        (tmp_path / "utt0000.lab").write_text(f"0 0 {samples.size}\n")
        manifest = tmp_path / "manifest.tsv"
        write_manifest(manifest, [ManifestEntry("utt0000", "wav/utt0000.wav", samples.size,
                                                "utt0000.lab")])
        with pytest.raises(ValueError) as info:
            load_corpus(manifest)
        wav = tmp_path / "wav" / "utt0000.wav"
        assert str(info.value) == f"{manifest}:1: utterance utt0000 ({wav}) {error}"

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
            Waveform(np.array([1.5]))
        with pytest.raises(ValueError):
            Waveform(np.array([np.nan]))

    def test_utterance_tiling_enforced(self):
        wav = Waveform(np.zeros(100))
        with pytest.raises(ValueError):
            Utterance("u", wav, [(0, 0, 50), (1, 60, 100)])  # gap
