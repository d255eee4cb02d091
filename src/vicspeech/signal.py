"""Synthetic speech-like corpus, noise families, exact-SNR mixing, log-mel features.

The corpus stands in for a real speech + noise dataset at desk scale.
Utterances are concatenations of 80-200 ms harmonic segments; each unit
symbol owns a fixed (fundamental, formant) pair, so frames of the same
symbol cluster in filterbank space and a k-means codebook can recover them.
Three noise families cover speech-shaped (babble), tonal (music), and
broadband (natural, 1/f-colored) interference. All synthesis is a pure
function of its seed.

Each babble voice is the first ``n`` samples of an utterance that is
peak-normalized as a whole, so the voice's scale is set by segments past
the crop. ``_babble`` renders the segments that cover those samples, and a
later segment only when a cheap upper bound on its peak exceeds the peak of
its voice found so far: with G = 128 phases psi_g over one period of the
segment's f0, the bound is
``gain * (max_g |sum_h a_h sin(h psi_g + phi_h)| + (pi/G) sum_h a_h h)``,
widened by x(1 + 1e-6) and +1e-9 for rounding. Every harmonic is a multiple
of f0, so the sum over h of a_h h bounds the slope in psi, and the fades
and the gain only shrink a segment: each voice's normalizing peak, and so
every output sample, is the same as rendering the whole utterance. The
sin and cos of h psi_g are one module constant, so by angle addition the
grid is two matrix-vector products with a_h cos(phi_h) and a_h sin(phi_h).

Speech segments, music chords and the music's tremolo are sums of
sinusoids, all rendered on the calling thread by one kernel,
``_sinusoids``. It cuts a piece into blocks of b samples and uses angle
addition twice. A sample is
``sin(w(t0 + tau) + phi) = sin(w tau) cos(w t0 + phi) + cos(w tau) sin(w t0 + phi)``,
so one matrix product of per-block coefficients and a per-offset table
gives every sample; and a block's coefficients,
``a cos(w t0 + phi) = cos(w t0) a cos(phi) - sin(w t0) a sin(phi)`` and its
sine twin, come from a table of block starts and the piece's a cos(phi) and
a sin(phi). Both tables depend on the partials' frequencies and on b alone.
Every speech segment, of at most 3200 samples, has b = isqrt(3200) = 56, so
its tables are cached per symbol and a segment costs 2 `sin`/`cos` values
per partial. A music chord or the tremolo has b = isqrt(n) and builds its
own, about 4 sqrt(n) values per partial instead of n. A sample is within
about 1e-12 of the exact sum.

On-disk formats: WAV is PCM 16-bit signed little-endian mono at 16 kHz
(``SAMPLE_RATE``); the corpus manifest is a UTF-8 TSV with rows
``utterance_id<TAB>wav_relpath<TAB>n_samples<TAB>labels_relpath`` and label
files hold one ``symbol_id start_sample end_sample`` line per segment.
"""

from __future__ import annotations

import math
import wave as _wavfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .numerics import Matrix

__all__ = [
    "NOISE_KINDS",
    "MAX_VOCAB_SIZE",
    "SAMPLE_RATE",
    "FRAME_LEN",
    "HOP",
    "N_FILTERS",
    "SNR_LIMIT_DB",
    "Waveform",
    "Utterance",
    "NoisySample",
    "ManifestEntry",
    "synth_utterance",
    "synth_noise",
    "mix_at_snr",
    "measure_snr",
    "frame_count",
    "check_utterance",
    "extract_features",
    "frame_labels",
    "read_wav",
    "write_wav",
    "write_labels",
    "numbered_lines",
    "load_labels",
    "write_manifest",
    "load_manifest",
    "build_corpus",
    "load_corpus",
]

SAMPLE_RATE = 16000
FRAME_LEN = 400  # 25 ms at 16 kHz
HOP = 160        # 10 ms
N_FILTERS = 40

NOISE_KINDS = ("babble", "music", "natural")

# the largest |SNR| a mix may have: past it the weaker signal's amplitude,
# under 1e-15 of the stronger's, is lost in float64 rounding
SNR_LIMIT_DB = 300.0

_SEGMENT_MIN_S = 0.08
_SEGMENT_MAX_S = 0.20
_PEAK = 0.95
_LOG_FLOOR = 1e-10


@dataclass
class Waveform:
    """Mono audio: float64 samples in [-1, 1] at ``SAMPLE_RATE``."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        if not np.isfinite(self.samples).all():
            raise ValueError("waveform contains non-finite samples")
        if self.samples.size and _peak(self.samples) > 1.0 + 1e-12:
            raise ValueError("waveform exceeds [-1, 1]; peak-normalize first")

    def __len__(self) -> int:
        return self.samples.size


@dataclass
class Utterance:
    """A waveform plus its tiling into labelled unit segments."""

    id: str
    wave: Waveform
    unit_labels: list[tuple[int, int, int]]  # (symbol_id, start_sample, end_sample)

    def __post_init__(self):
        pos = 0
        for sym, start, end in self.unit_labels:
            if sym < 0:
                raise ValueError(f"negative symbol id in segment {sym} {start} {end}")
            if start != pos or end <= start:
                raise ValueError(f"segment {sym} {start} {end} breaks the tiling of the waveform")
            pos = end
        if self.unit_labels and pos != len(self.wave):
            raise ValueError(f"segments end at sample {pos}, the waveform at {len(self.wave)}")


@dataclass
class NoisySample:
    """A mix of clean speech and noise at an exact SNR.

    ``gain`` is the factor the noise was scaled by. ``mixed * peak_scale``
    restores the pre-normalization mix, so
    ``measure_snr(clean, mixed * peak_scale - clean)`` recovers the SNR.
    """

    mixed: Waveform
    gain: float
    peak_scale: float


# ----------------------------------------------------------------------
# synthesis
# ----------------------------------------------------------------------

# (fundamentals, formant bands): each unit symbol owns one cell of this grid,
# so a vocabulary larger than the grid would alias voicings
_VOICING_GRID = (6, 8)
MAX_VOCAB_SIZE = _VOICING_GRID[0] * _VOICING_GRID[1]


def _voice_params(symbol: int) -> tuple[float, float]:
    # Fixed (f0, formant-center) per symbol.
    f0 = 90.0 + 18.0 * (symbol % _VOICING_GRID[0])
    formant = 420.0 + 330.0 * (symbol // _VOICING_GRID[0])
    return f0, formant


_MAX_HARMONICS = 24


@lru_cache(maxsize=MAX_VOCAB_SIZE)
def _harmonics(symbol: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (angular frequencies, harmonic numbers, harmonic amplitudes) of a symbol's voicing
    f0, formant = _voice_params(symbol)
    n_harm = max(1, min(int(3800.0 / f0), _MAX_HARMONICS))
    h = np.arange(1, n_harm + 1)
    amps = np.exp(-0.5 * ((h * f0 - formant) / 260.0) ** 2) + 0.10 / h
    omega = 2.0 * math.pi * f0 * h
    for table in (omega, h, amps):
        table.setflags(write=False)
    return omega, h, amps


def _tables(omega: np.ndarray, b: int, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's read-only tables for partials of angular frequencies
    `omega` in blocks of `b` samples: ``[sin(w tau); cos(w tau)]`` at the
    offsets tau < b, shape (2P, b), and ``[cos(w t0), sin(w t0)]`` at the
    `n_blocks` block starts t0 = j b, shape (n_blocks, 2P)."""
    tau = np.multiply.outer(omega, np.arange(b) / SAMPLE_RATE)
    t0 = np.multiply.outer(np.arange(0, n_blocks * b, b) / SAMPLE_RATE, omega)
    offsets = np.concatenate((np.sin(tau), np.cos(tau)))
    starts = np.concatenate((np.cos(t0), np.sin(t0)), axis=1)
    for table in (offsets, starts):
        table.setflags(write=False)
    return offsets, starts


# Every speech segment, of at most _SEGMENT_MAX_N samples, is cut into blocks of
# the same width, so its tables depend on its symbol alone.
_SEGMENT_MAX_N = round(_SEGMENT_MAX_S * SAMPLE_RATE)
_SEGMENT_BLOCK = math.isqrt(_SEGMENT_MAX_N)  # 56 samples
_SEGMENT_BLOCKS = -(-_SEGMENT_MAX_N // _SEGMENT_BLOCK)  # 58 block starts


@lru_cache(maxsize=MAX_VOCAB_SIZE)
def _segment_tables(symbol: int) -> tuple[np.ndarray, np.ndarray]:
    return _tables(_harmonics(symbol)[0], _SEGMENT_BLOCK, _SEGMENT_BLOCKS)


def _phasors(amps: np.ndarray, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a cos(phi), a sin(phi))``: a piece's 2P `sin`/`cos` values."""
    return amps * np.cos(phases), amps * np.sin(phases)


def _sinusoids(tables: tuple[np.ndarray, np.ndarray],
               phasors: tuple[np.ndarray, np.ndarray], out: np.ndarray) -> None:
    """Write ``sum_i a_i sin(w_i t + phi_i)`` into `out`, t the time of
    samples 0, 1, ..., from ``_tables(w, b, k)`` with k b >= `out`.size and
    ``_phasors(a, phi)``. Block j starts at sample t0 = j b, and its sample
    t0 + tau is row j of ``coef = [a cos(w t0 + phi), a sin(w t0 + phi)]``,
    formed by angle addition, times column tau of the offset table (see the
    module docstring)."""
    offsets, starts = tables
    n, b = out.size, offsets.shape[1]
    k = -(-n // b)
    if k > starts.shape[0]:
        raise ValueError(f"a piece of {n} samples is longer than its tables "
                         f"({starts.shape[0] * b} samples)")
    a_cos, a_sin = phasors
    cos_t0, sin_t0 = starts[:k, :a_cos.size], starts[:k, a_cos.size:]
    coef = np.concatenate((cos_t0 * a_cos - sin_t0 * a_sin, sin_t0 * a_cos + cos_t0 * a_sin),
                          axis=1)
    out[...] = (coef @ offsets).ravel()[:n]


_FADE = int(0.005 * SAMPLE_RATE)  # a segment's longest fade: 5 ms


@lru_cache(maxsize=_FADE)
def _fade_ramp(fade: int) -> np.ndarray:
    """The read-only raised-cosine fade-in of `fade` samples."""
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(fade) / fade))
    ramp.setflags(write=False)
    return ramp


@dataclass
class _Segment:
    """One drawn speech segment: its symbol, length, harmonic phases and gain."""

    symbol: int
    n: int
    phases: np.ndarray
    gain: float

    def render(self, out: np.ndarray) -> None:
        _, _, amps = _harmonics(self.symbol)
        _sinusoids(_segment_tables(self.symbol), _phasors(amps, self.phases), out)
        out *= self.gain
        ramp = _fade_ramp(max(1, min(_FADE, self.n // 4)))
        out[:ramp.size] *= ramp
        out[-ramp.size:] *= ramp[::-1]


def _draw_segment(rng: np.random.Generator, symbol: int, n: int) -> _Segment:
    n_harm = _harmonics(symbol)[1].size
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_harm)
    return _Segment(symbol, n, phases, rng.uniform(0.5, 1.0))


@dataclass
class _Chord:
    """`n` samples of a sum of sinusoids from t = 0, a music chord or its
    tremolo: its partials' angular frequencies, amplitudes and phases. The
    kernel's blocks are isqrt(n) samples wide."""

    n: int
    omega: np.ndarray
    amps: np.ndarray
    phases: np.ndarray

    def render(self, out: np.ndarray) -> None:
        b = math.isqrt(self.n)
        _sinusoids(_tables(self.omega, b, -(-self.n // b)), _phasors(self.amps, self.phases), out)


def _render(pieces: Sequence, out: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """Each piece's samples: consecutive slices of `out`, which the pieces
    tile, or new arrays."""
    if out is None:
        outs = [np.empty(piece.n) for piece in pieces]
    else:
        outs = np.split(out, np.cumsum([piece.n for piece in pieces[:-1]]))
    for piece, piece_out in zip(pieces, outs):
        piece.render(piece_out)
    return outs


def _peak(samples: np.ndarray) -> float:
    return max(samples.max(), -samples.min())  # max |sample|, without an |samples| copy


_BOUND_GRID = 128
# [sin(h psi_g); cos(h psi_g)] at the G phases psi_g = 2 pi g / G over one
# period and every harmonic number h, shape (2, G, _MAX_HARMONICS)
_GRID = np.multiply.outer(2.0 * math.pi * np.arange(_BOUND_GRID) / _BOUND_GRID,
                          np.arange(1, _MAX_HARMONICS + 1))
_GRID = np.stack((np.sin(_GRID), np.cos(_GRID)))
_GRID.setflags(write=False)


def _peak_bound(seg: _Segment) -> float:
    """An upper bound on ``max|_render([seg])[0]|``, from G = 128 phases
    instead of the segment's samples (see the module docstring). The
    margin, x(1 + 1e-6) and +1e-9, covers the rounding of the grid and of
    the kernel, whose error of about 1e-12 is well inside it."""
    _, h, amps = _harmonics(seg.symbol)
    a_cos, a_sin = _phasors(amps, seg.phases)
    # sin(h psi + phi) by angle addition
    on_grid = _GRID[0, :, :h.size] @ a_cos + _GRID[1, :, :h.size] @ a_sin
    slope = float(amps @ h)
    bound = seg.gain * (float(_peak(on_grid)) + math.pi / _BOUND_GRID * slope)
    return bound * (1.0 + 1e-6) + 1e-9


_FOLLOW_PROB = 0.7  # chance the next symbol is the fixed successor of the last


def _plan_utterance(seed: int, n_segments: int,
                    vocab_size: int) -> tuple[list[_Segment], list[tuple[int, int, int]]]:
    """The drawn segments of utterance `seed` and their unit labels: the
    symbol chain, each segment's duration, then its phases and gain."""
    if not 2 <= vocab_size <= MAX_VOCAB_SIZE:
        raise ValueError(f"vocab_size must be in [2, {MAX_VOCAB_SIZE}]")
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    rng = np.random.default_rng(seed)
    plan: list[_Segment] = []
    labels: list[tuple[int, int, int]] = []
    pos = 0
    sym = int(rng.integers(vocab_size))
    for _ in range(n_segments):
        dur = rng.uniform(_SEGMENT_MIN_S, _SEGMENT_MAX_S)
        n = int(round(dur * SAMPLE_RATE))
        plan.append(_draw_segment(rng, sym, n))
        labels.append((sym, pos, pos + n))
        pos += n
        if rng.random() < _FOLLOW_PROB:
            sym = (sym + 1) % vocab_size
        else:
            sym = int(rng.integers(vocab_size))
    return plan, labels


def synth_utterance(seed: int, n_segments: int, vocab_size: int) -> Utterance:
    """Concatenate `n_segments` harmonic segments with per-segment unit labels.

    Deterministic given (seed, arguments); same-symbol segments share their
    (f0, formant) voicing and therefore their filterbank footprint. Symbol
    sequences follow a first-order chain (each symbol's successor follows
    with probability 0.7, otherwise uniform), so masked segments are partly
    predictable from context, as phone sequences are in speech. The whole
    utterance is peak-normalized to 0.95.
    """
    plan, labels = _plan_utterance(seed, n_segments, vocab_size)
    samples = np.empty(labels[-1][2])
    _render(plan, samples)
    samples *= _PEAK / _peak(samples)
    return Utterance(id=f"u{seed}", wave=Waveform(samples), unit_labels=labels)


def _babble(rng: np.random.Generator, n: int) -> np.ndarray:
    """The sum of 3-8 voices, each the first `n` samples of an 8-symbol
    utterance scaled by that whole utterance's peak (see the module docstring)."""
    n_voices = int(rng.integers(3, 9))
    n_segments = math.ceil(n / (_SEGMENT_MIN_S * SAMPLE_RATE)) + 1
    covers: list[list[_Segment]] = []  # per voice, the segments that cover its n samples
    rests: list[list[_Segment]] = []  # and the later ones
    for _ in range(n_voices):
        plan, labels = _plan_utterance(int(rng.integers(2**31)), n_segments, 8)
        n_cover = sum(start < n for _, start, _ in labels)
        covers.append(plan[:n_cover])
        rests.append(plan[n_cover:])
    lengths = [sum(seg.n for seg in cover) for cover in covers]
    samples = np.empty(sum(lengths))
    _render([seg for cover in covers for seg in cover], samples)
    # per voice, (bound, later segment) by rising bound
    queues = [sorted(((_peak_bound(seg), seg) for seg in rest), key=lambda pair: pair[0])
              for rest in rests]
    voices = np.split(samples, np.cumsum(lengths[:-1]))
    peaks = [_peak(voice) for voice in voices]
    # A later segment can only raise its voice's peak. Each round renders the
    # loudest untried segment of every voice whose bound exceeds its peak.
    while True:
        tried = [k for k, queue in enumerate(queues) if queue and queue[-1][0] > peaks[k]]
        if not tried:
            break
        rendered = _render([queues[k].pop()[1] for k in tried])
        for k, out in zip(tried, rendered):
            peaks[k] = max(peaks[k], _peak(out))
    x = np.zeros(n)
    for voice, peak in zip(voices, peaks):
        x += voice[:n] * (_PEAK / peak)
    return x


def _music(rng: np.random.Generator, n: int) -> np.ndarray:
    roots = 110.0 * 2.0 ** (np.array([0, 3, 5, 7, 10, 12]) / 12.0)
    ratios = np.array([1.0, 1.25, 1.5])
    harmonics = np.arange(1, 6)
    chords: list[_Chord] = []
    pos = 0
    while pos < n:
        dur = min(int(rng.uniform(0.6, 1.4) * SAMPLE_RATE), n - pos)
        root = float(rng.choice(roots)) * float(rng.choice([1.0, 2.0]))
        freqs = (root * np.outer(ratios, harmonics)).ravel()
        amps = np.tile(1.0 / harmonics, ratios.size)
        keep = freqs < 4000.0
        freqs, amps = freqs[keep], amps[keep]
        phases = rng.uniform(0.0, 2.0 * math.pi, size=freqs.size)
        chords.append(_Chord(dur, 2.0 * math.pi * freqs, amps, phases))
        pos += dur
    x = np.empty(n)
    _render(chords, x)
    # the tremolo 0.55 + 0.45 sin(2 pi f t + phi), rendered as a one-partial piece
    omega = np.array([2.0 * math.pi * rng.uniform(0.3, 1.0)])
    tremolo = _Chord(n, omega, np.array([0.45]), np.array([rng.uniform(0.0, 2.0 * math.pi)]))
    envelope = _render([tremolo])[0]
    envelope += 0.55
    x *= envelope
    return x


def _natural(rng: np.random.Generator, n: int) -> np.ndarray:
    # FFT at the next power of two (arbitrary lengths hit slow FFT paths), then crop.
    n_fft = 1 << (n - 1).bit_length()
    white = rng.standard_normal(n_fft)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n_fft, 1.0 / SAMPLE_RATE)
    spectrum *= 1.0 / np.sqrt(np.maximum(freqs, 20.0))  # power ~ 1/f above 20 Hz
    x = np.fft.irfft(spectrum, n_fft)[:n]
    t = np.arange(n) / SAMPLE_RATE
    env = np.full(n, 0.35)
    for _ in range(int(rng.integers(2, 6))):
        center = rng.uniform(0.0, n / SAMPLE_RATE)
        width = rng.uniform(0.05, 0.3)
        env += rng.uniform(0.5, 2.0) * np.exp(-0.5 * ((t - center) / width) ** 2)
    return x * env


def synth_noise(kind: str, seed: int, n_samples: int) -> Waveform:
    """Generate `n_samples` of babble, music, or natural (1/f) noise."""
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    if kind == "babble":
        x = _babble(rng, n_samples)
    elif kind == "music":
        x = _music(rng, n_samples)
    elif kind == "natural":
        x = _natural(rng, n_samples)
    else:
        raise ValueError(f"unknown noise kind {kind!r}; expected one of {NOISE_KINDS}")
    peak = _peak(x)
    if peak == 0.0:
        raise ValueError(f"{kind} noise of {n_samples} samples from seed {seed} is silent")
    x = x * (_PEAK / peak)
    return Waveform(x)


# ----------------------------------------------------------------------
# mixing
# ----------------------------------------------------------------------

def _power(samples: np.ndarray) -> float:
    return float(np.mean(samples * samples))


def measure_snr(clean: np.ndarray, noise_component: np.ndarray) -> float:
    """10 log10 of the clean-to-noise power ratio of two sample arrays, in dB."""
    if clean.size != noise_component.size:
        raise ValueError("clean and noise lengths differ")
    p_clean, p_noise = _power(clean), _power(noise_component)
    if p_clean == 0.0 or p_noise == 0.0:
        raise ValueError("SNR undefined for silent input")
    return 10.0 * math.log10(p_clean / p_noise)


def mix_at_snr(clean: Waveform, noise: Waveform, snr_db: float) -> NoisySample:
    """Mix `noise` into `clean` at exactly `snr_db`.

    The noise is cropped to the clean length and scaled by
    ``g = sqrt(P_clean / (P_noise * 10^(snr_db/10)))``; the mix is then
    peak-normalized only if it leaves [-1, 1]. `snr_db` must be finite and
    within ``SNR_LIMIT_DB``.
    """
    if not abs(snr_db) <= SNR_LIMIT_DB:
        raise ValueError(f"snr_db must be in [-{SNR_LIMIT_DB:g}, {SNR_LIMIT_DB:g}], got {snr_db}")
    if len(noise) < len(clean):
        raise ValueError("noise shorter than clean signal")
    n = noise.samples[: len(clean)]
    p_clean, p_noise = _power(clean.samples), _power(n)
    if p_clean == 0.0 or p_noise == 0.0:
        raise ValueError("SNR undefined for silent input")
    gain = math.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    mixed_pre = clean.samples + gain * n
    peak = float(_peak(mixed_pre))
    scale = peak if peak > 1.0 else 1.0
    return NoisySample(Waveform(mixed_pre / scale), gain, scale)


# ----------------------------------------------------------------------
# features
# ----------------------------------------------------------------------

def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_filterbank() -> Matrix:
    """Triangular mel-spaced filters over the rfft bins of an ``_NFFT``-point
    FFT, shape (N_FILTERS, _NFFT//2+1), read-only."""
    nyquist = SAMPLE_RATE / 2.0
    points = _mel_to_hz(np.linspace(0.0, float(_hz_to_mel(nyquist)), N_FILTERS + 2))
    freqs = np.linspace(0.0, nyquist, _NFFT // 2 + 1)
    fb = np.zeros((N_FILTERS, freqs.size))
    for m in range(N_FILTERS):
        lo, center, hi = points[m], points[m + 1], points[m + 2]
        rising = (freqs - lo) / (center - lo)
        falling = (hi - freqs) / (hi - center)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.setflags(write=False)
    return fb


# the front end, built once: a frame's Hann window, its FFT size (512) and the mel filters
_NFFT = 1 << (FRAME_LEN - 1).bit_length()
_WINDOW = np.hanning(FRAME_LEN)
_WINDOW.setflags(write=False)
_MEL_FILTERS = _mel_filterbank()


def frame_count(n_samples: int, what: str = "waveform") -> int:
    """``1 + (n_samples - FRAME_LEN) // HOP``, the frame count of `n_samples`
    samples; fewer samples than one frame raise a ValueError naming `what`."""
    if n_samples < FRAME_LEN:
        raise ValueError(f"{what} of {n_samples} samples is shorter than one frame ({FRAME_LEN})")
    return 1 + (n_samples - FRAME_LEN) // HOP


def check_utterance(utt: Utterance, what: str) -> None:
    """Reject `utt`, naming it as `what`, unless it holds at least one frame
    and has nonzero power: noise cannot be mixed into silence at any SNR."""
    frame_count(len(utt.wave), what)
    if _power(utt.wave.samples) == 0.0:
        raise ValueError(f"{what} is silent: no SNR is defined for it")


def extract_features(wav: Waveform) -> Matrix:
    """The T x N_FILTERS log mel-filterbank features of `wav`: Hann window,
    power spectrum, triangular mel filters, then ``log(x + 1e-10)``; T is
    ``frame_count(len(wav))``."""
    samples = wav.samples
    n_frames = frame_count(samples.size)
    idx = np.arange(n_frames)[:, None] * HOP + np.arange(FRAME_LEN)[None, :]
    windows = samples[idx] * _WINDOW
    power = np.abs(np.fft.rfft(windows, n=_NFFT, axis=1)) ** 2
    return np.log(power @ _MEL_FILTERS.T + _LOG_FLOOR)


def frame_labels(utt: Utterance) -> np.ndarray:
    """The symbol of the segment covering each frame's center sample."""
    if not utt.unit_labels:
        raise ValueError(f"utterance {utt.id} has no unit labels")
    n_frames = frame_count(len(utt.wave), f"utterance {utt.id}")
    centers = np.arange(n_frames) * HOP + FRAME_LEN // 2
    segments = np.array(utt.unit_labels, dtype=np.int64)  # rows (symbol, start, end)
    return segments[np.searchsorted(segments[:, 1], centers, side="right") - 1, 0]


# ----------------------------------------------------------------------
# WAV + manifest I/O
# ----------------------------------------------------------------------

def write_wav(path, wav: Waveform) -> None:
    """Write PCM 16-bit signed little-endian mono."""
    ints = np.clip(np.rint(wav.samples * 32767.0), -32768, 32767).astype("<i2")
    with _wavfile.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(ints.tobytes())


def read_wav(path) -> Waveform:
    """The samples of a PCM 16-bit mono WAV file sampled at ``SAMPLE_RATE``."""
    try:
        with _wavfile.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
                raise ValueError("expected 16-bit mono PCM")
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
        samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    except (_wavfile.Error, EOFError, RuntimeError, ValueError) as exc:
        # EOFError, and RuntimeError from `wave` seeking past a chunk's end, carry no text
        raise ValueError(f"{path}: not a 16-bit mono PCM WAV file: "
                         f"{str(exc) or 'a chunk runs past the end of the file'}") from None
    if rate != SAMPLE_RATE:
        raise ValueError(f"{path} is sampled at {rate} Hz, not {SAMPLE_RATE} Hz")
    return Waveform(np.clip(samples, -1.0, 1.0))


def write_labels(path, unit_labels: Sequence[tuple[int, int, int]]) -> None:
    lines = [f"{sym} {start} {end}\n" for sym, start, end in unit_labels]
    Path(path).write_text("".join(lines), encoding="utf-8")


def numbered_lines(path) -> list[tuple[int, str]]:
    """(line number, line) for each nonblank line of the UTF-8 file `path`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason}") from None
    return [(ln, line) for ln, line in enumerate(text.splitlines(), start=1) if line.strip()]


def load_labels(path) -> list[tuple[int, int, int]]:
    out = []
    for ln, line in numbered_lines(path):
        try:
            sym, start, end = map(int, line.split())
        except ValueError:
            raise ValueError(f"{path}:{ln}: expected three integers, got {line!r}") from None
        out.append((sym, start, end))
    return out


@dataclass
class ManifestEntry:
    utterance_id: str
    wav_relpath: str
    n_samples: int
    labels_relpath: str


def write_manifest(path, entries: Sequence[ManifestEntry]) -> None:
    lines = [
        f"{e.utterance_id}\t{e.wav_relpath}\t{e.n_samples}\t{e.labels_relpath}\n"
        for e in entries
    ]
    Path(path).write_text("".join(lines), encoding="utf-8")


def load_manifest(path) -> list[tuple[int, ManifestEntry]]:
    """Each entry of the manifest at `path`, with its line number."""
    entries = []
    for ln, line in numbered_lines(path):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{path}:{ln}: expected 4 tab-separated fields")
        try:
            n_samples = int(parts[2])
        except ValueError:
            raise ValueError(f"{path}:{ln}: n_samples {parts[2]!r} is not an integer") from None
        entries.append((ln, ManifestEntry(parts[0], parts[1], n_samples, parts[3])))
    return entries


def build_corpus(out_dir, n_utterances: int, corpus_seed: int, vocab_size: int,
                 n_segments: int) -> Path:
    """Synthesize a corpus under `out_dir` and return the manifest path.

    Per-utterance seeds are ``corpus_seed ^ index``, so utterances can also be
    generated concurrently without changing the output.
    """
    out_dir = Path(out_dir)
    (out_dir / "wav").mkdir(parents=True, exist_ok=True)
    (out_dir / "labels").mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(n_utterances):
        utt = synth_utterance(corpus_seed ^ i, n_segments=n_segments, vocab_size=vocab_size)
        utt.id = f"utt{i:04d}"
        wav_rel = f"wav/{utt.id}.wav"
        lab_rel = f"labels/{utt.id}.lab"
        write_wav(out_dir / wav_rel, utt.wave)
        write_labels(out_dir / lab_rel, utt.unit_labels)
        entries.append(ManifestEntry(utt.id, wav_rel, len(utt.wave), lab_rel))
    manifest = out_dir / "manifest.tsv"
    write_manifest(manifest, entries)
    return manifest


def load_corpus(manifest_path) -> list[Utterance]:
    """The utterances `manifest_path` lists, each passing `check_utterance`;
    an error in an entry or its files names the entry's manifest line.

    Ids are unique plain file names, because `<id>.feat` names an
    utterance's feature file."""
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    utterances = []
    id_lines: dict[str, int] = {}
    for ln, entry in load_manifest(manifest_path):
        uid, where = entry.utterance_id, f"{manifest_path}:{ln}"
        if uid in ("", ".", "..") or "/" in uid or "\\" in uid:
            raise ValueError(f"{where}: utterance id {uid!r} is not a plain file name")
        if uid in id_lines:
            raise ValueError(f"{where}: utterance id {uid!r} repeats line {id_lines[uid]}")
        id_lines[uid] = ln
        wav_path, labels_path = root / entry.wav_relpath, root / entry.labels_relpath
        try:
            wav = read_wav(wav_path)
            if len(wav) != entry.n_samples:
                raise ValueError(f"{wav_path} has {len(wav)} samples, not {entry.n_samples}")
            labels = load_labels(labels_path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
        try:
            utt = Utterance(id=entry.utterance_id, wave=wav, unit_labels=labels)
        except ValueError as exc:
            raise ValueError(f"{where}: {labels_path}: {exc} ({wav_path})") from None
        check_utterance(utt, f"{where}: utterance {uid} ({wav_path})")
        utterances.append(utt)
    if not utterances:
        raise ValueError(f"{manifest_path}: lists no utterances")
    return utterances
