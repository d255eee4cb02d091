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
the crop. ``synth_utterance(..., n_samples=n)`` returns exactly those
samples and renders a later segment only when a cheap upper bound on its
peak exceeds the peak found so far: with G = 128 phases psi_g over one
period of the segment's f0, the bound is
``gain * (max_g |sum_h a_h sin(h psi_g + phi_h)| + (pi/G) sum_h a_h h)``,
widened by x(1 + 1e-6) and +1e-9 for rounding. Every harmonic is a multiple
of f0, so the sum over h of a_h h bounds the slope in psi, and the fades
and the gain only shrink a segment: the normalizing peak, and so every
output sample, is the same as rendering the whole utterance.

Speech segments and music chords are sums of sinusoids, all rendered by one
kernel. When the process may run on two or more CPUs (``synthesis_threads``)
the pieces of each call, speech segments or halves of chords, are split
between the caller and a helper thread that lives for that call, and the
peak search renders its candidates in pairs. No thread outlives the call
that started it. Every sample is the same at either thread count.

On-disk formats: WAV is PCM 16-bit signed little-endian mono at 16 kHz
(``SAMPLE_RATE``); the corpus manifest is a UTF-8 TSV with rows
``utterance_id<TAB>wav_relpath<TAB>n_samples<TAB>labels_relpath`` and label
files hold one ``symbol_id start_sample end_sample`` line per segment.
"""

from __future__ import annotations

import math
import os
import threading
import wave as _wavfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Sequence

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
    "synthesis_threads",
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
        # max |sample| without an |samples| copy
        if self.samples.size and max(self.samples.max(), -self.samples.min()) > 1.0 + 1e-12:
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


# a thread sums its sinusoids in blocks of at most this many (partial, sample)
# values, so its scratch buffer stays small whatever the length of a piece
_BLOCK = 1 << 15


def _sinusoids(omega: np.ndarray, amps: np.ndarray, phases: np.ndarray,
               scratch: np.ndarray, out: np.ndarray, first: int = 0) -> None:
    """Write ``sum_i amps[i] * sin(omega[i] * t + phases[i])`` into `out`,
    adding the partials in order i = 0, 1, ... to zero; t is the time of
    samples `first`, `first` + 1, ... `scratch` holds ``_BLOCK`` values: one
    `sin` call per block of samples, and no allocation the size of the signal."""
    rows = omega.size
    step = max(1, _BLOCK // rows)
    for lo in range(0, out.size, step):
        hi = min(lo + step, out.size)
        block = scratch[: rows * (hi - lo)].reshape(rows, hi - lo)
        np.multiply.outer(omega, np.arange(first + lo, first + hi) / SAMPLE_RATE, out=block)
        block += phases[:, None]
        np.sin(block, out=block)
        block *= amps[:, None]
        acc = out[lo:hi]
        acc[...] = 0.0
        for row in block:
            acc += row


@dataclass
class _Segment:
    """One drawn speech segment: its symbol, length, harmonic phases and gain."""

    symbol: int
    n: int
    phases: np.ndarray
    gain: float

    def render(self, scratch: np.ndarray, out: np.ndarray) -> None:
        omega, _, amps = _harmonics(self.symbol)
        _sinusoids(omega, amps, self.phases, scratch, out)
        out *= self.gain
        fade = max(1, min(int(0.005 * SAMPLE_RATE), self.n // 4))
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(fade) / fade))
        out[:fade] *= ramp
        out[-fade:] *= ramp[::-1]


def _draw_segment(rng: np.random.Generator, symbol: int, n: int) -> _Segment:
    n_harm = _harmonics(symbol)[1].size
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_harm)
    return _Segment(symbol, n, phases, rng.uniform(0.5, 1.0))


@dataclass
class _Chord:
    """`n` samples of a drawn music chord, from its sample `first` on, and
    its partials' angular frequencies, amplitudes and phases."""

    n: int
    omega: np.ndarray
    amps: np.ndarray
    phases: np.ndarray
    first: int

    def render(self, scratch: np.ndarray, out: np.ndarray) -> None:
        _sinusoids(self.omega, self.amps, self.phases, scratch, out, self.first)


def synthesis_threads() -> int:
    """The threads that render speech and noise: the caller plus one helper
    when the process may run on two or more CPUs, else the caller alone.
    Every output sample is the same at either count."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 else 1


def _render(pieces: Sequence, out: Optional[np.ndarray] = None,
            meanwhile: Callable[[], None] = lambda: None) -> list[np.ndarray]:
    """Each piece's samples: consecutive slices of `out`, which the pieces
    tile, or new arrays. With two synthesis threads, several pieces are
    split between the caller and a helper thread that lives for this call,
    balanced by partials x samples; each piece is rendered by the same code,
    so the samples do not depend on the split. The caller runs `meanwhile`
    once it has rendered its share, while the helper may still be rendering."""
    if out is None:
        outs = [np.empty(piece.n) for piece in pieces]
    else:
        outs = np.split(out, np.cumsum([piece.n for piece in pieces[:-1]]))
    jobs = list(zip(pieces, outs))
    if len(pieces) < 2 or synthesis_threads() < 2:
        _render_jobs(jobs)
        meanwhile()
        return outs
    mine, theirs, lead = [], [], 0  # lead: the caller's work minus the helper's
    for job in jobs:
        cost = job[0].phases.size * job[0].n
        if lead <= 0:
            mine.append(job)
            lead += cost
        else:
            theirs.append(job)
            lead -= cost
    failure: list[BaseException] = []

    def render_theirs() -> None:
        try:
            _render_jobs(theirs)
        except BaseException as exc:  # the caller raises it
            failure.append(exc)

    helper = threading.Thread(target=render_theirs, name="vicspeech-synthesis")
    helper.start()
    try:
        _render_jobs(mine)
        meanwhile()
    finally:
        helper.join()
    if failure:
        raise failure[0]
    return outs


def _render_jobs(jobs) -> None:
    scratch = np.empty(_BLOCK)
    for piece, out in jobs:
        piece.render(scratch, out)


_BOUND_GRID = 128
_GRID_PHASES = 2.0 * math.pi * np.arange(_BOUND_GRID) / _BOUND_GRID


def _peak_bound(seg: _Segment) -> float:
    """An upper bound on ``max|_render([seg])[0]|``, from G = 128 phases
    instead of the segment's samples (see the module docstring). The
    margin, x(1 + 1e-6) and +1e-9, covers rounding of the sin arguments,
    which stays well under 1e-10 for segments of at most 0.2 s."""
    _, h, amps = _harmonics(seg.symbol)
    on_grid = np.sin(np.multiply.outer(_GRID_PHASES, h) + seg.phases) @ amps
    slope = float(amps @ h)
    bound = seg.gain * (float(np.abs(on_grid).max()) + math.pi / _BOUND_GRID * slope)
    return bound * (1.0 + 1e-6) + 1e-9


_FOLLOW_PROB = 0.7  # chance the next symbol is the fixed successor of the last


def synth_utterance(
    seed: int,
    n_segments: int = 12,
    vocab_size: int = 16,
    *,
    n_samples: Optional[int] = None,
) -> Utterance:
    """Concatenate `n_segments` harmonic segments with per-segment unit labels.

    Deterministic given (seed, arguments); same-symbol segments share their
    (f0, formant) voicing and therefore their filterbank footprint. Symbol
    sequences follow a first-order chain (each symbol's successor follows
    with probability 0.7, otherwise uniform), so masked segments are partly
    predictable from context, as phone sequences are in speech.

    The whole utterance is peak-normalized to 0.95. With `n_samples` in
    [1, full length] the result is exactly the first `n_samples` samples of
    the full utterance, labels clipped to them, still scaled by the full
    utterance's peak. The segments that cover those samples are rendered;
    a later segment is rendered only if its peak bound
    ``gain * (max_g |sum_h a_h sin(h psi_g + phi_h)| + (pi/128) sum_h a_h h)
    * (1 + 1e-6) + 1e-9`` (psi_g: 128 phases over one f0 period) exceeds the
    largest peak found so far, which the bound shows it cannot otherwise
    change.
    """
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
    keep = pos if n_samples is None else n_samples
    if not 1 <= keep <= pos:
        raise ValueError(f"n_samples must be in [1, {pos}], got {n_samples}")
    n_cover = sum(start < keep for _, start, _ in labels)
    samples = np.empty(labels[n_cover - 1][2])
    bounds: list[tuple[float, _Segment]] = []
    _render(plan[:n_cover], samples,
            meanwhile=lambda: bounds.extend((_peak_bound(seg), seg) for seg in plan[n_cover:]))
    peak = max(samples.max(), -samples.min())  # max |sample|, without an |samples| copy
    # A later segment can only raise the normalizing peak: try the loudest
    # first, one per synthesis thread at a time. The second of a pair may turn
    # out needless, but its peak is at most its bound, so at most the peak.
    rest = sorted(bounds, key=lambda pair: pair[0], reverse=True)
    width = synthesis_threads()
    for first in range(0, len(rest), width):
        tried = [seg for bound, seg in rest[first : first + width] if bound > peak]
        if not tried:
            break
        peak = max(peak, *(np.abs(x).max() for x in _render(tried)))
    samples = samples[:keep]
    samples *= _PEAK / peak
    labels = [(sym, start, min(end, keep)) for sym, start, end in labels[:n_cover]]
    return Utterance(id=f"u{seed}", wave=Waveform(samples), unit_labels=labels)


def _babble(rng: np.random.Generator, n: int) -> np.ndarray:
    # each voice is the start of a speech-like utterance long enough to crop
    n_voices = int(rng.integers(3, 9))
    n_segments = math.ceil(n / (_SEGMENT_MIN_S * SAMPLE_RATE)) + 1
    x = np.zeros(n)
    for _ in range(n_voices):
        voice = synth_utterance(int(rng.integers(2**31)), n_segments=n_segments, vocab_size=8,
                                n_samples=n)
        x += voice.wave.samples
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
        omega = 2.0 * math.pi * freqs
        # two halves, so that a music call of one or two chords splits evenly
        half = dur // 2
        chords += [_Chord(half, omega, amps, phases, 0),
                   _Chord(dur - half, omega, amps, phases, half)]
        pos += dur
    x = np.empty(n)
    _render(chords, x)
    t_all = np.arange(n) / SAMPLE_RATE
    lfo = rng.uniform(0.3, 1.0)
    x *= 0.55 + 0.45 * np.sin(2.0 * math.pi * lfo * t_all + rng.uniform(0.0, 2.0 * math.pi))
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
    peak = np.abs(x).max()
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
    peak = float(np.abs(mixed_pre).max())
    scale = peak if peak > 1.0 else 1.0
    return NoisySample(Waveform(mixed_pre / scale), gain, scale)


# ----------------------------------------------------------------------
# features
# ----------------------------------------------------------------------

def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def _mel_filterbank(nfft: int) -> Matrix:
    """Triangular mel-spaced filters over the rfft bins, shape
    (N_FILTERS, nfft//2+1), cached and read-only."""
    nyquist = SAMPLE_RATE / 2.0
    points = _mel_to_hz(np.linspace(0.0, float(_hz_to_mel(nyquist)), N_FILTERS + 2))
    freqs = np.linspace(0.0, nyquist, nfft // 2 + 1)
    fb = np.zeros((N_FILTERS, freqs.size))
    for m in range(N_FILTERS):
        lo, center, hi = points[m], points[m + 1], points[m + 2]
        rising = (freqs - lo) / (center - lo)
        falling = (hi - freqs) / (hi - center)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.setflags(write=False)
    return fb


def frame_count(n_samples: int, frame_len: int, hop: int, what: str = "waveform") -> int:
    """``1 + (n_samples - frame_len) // hop``, the frame count of `n_samples`
    samples; fewer samples than one frame raise a ValueError naming `what`."""
    if n_samples < frame_len:
        raise ValueError(f"{what} of {n_samples} samples is shorter than one frame ({frame_len})")
    return 1 + (n_samples - frame_len) // hop


def check_utterance(utt: Utterance, what: str) -> None:
    """Reject `utt`, naming it as `what`, unless it holds at least one frame
    and has nonzero power: noise cannot be mixed into silence at any SNR."""
    frame_count(len(utt.wave), FRAME_LEN, HOP, what)
    if _power(utt.wave.samples) == 0.0:
        raise ValueError(f"{what} is silent: no SNR is defined for it")


def extract_features(wav: Waveform, frame_len: int = FRAME_LEN, hop: int = HOP) -> Matrix:
    """The T x N_FILTERS log mel-filterbank features of `wav`: Hann window,
    power spectrum, triangular mel filters, then ``log(x + 1e-10)``; T is
    ``frame_count(len(wav), frame_len, hop)``."""
    samples = wav.samples
    n_frames = frame_count(samples.size, frame_len, hop)
    idx = np.arange(n_frames)[:, None] * hop + np.arange(frame_len)[None, :]
    windows = samples[idx] * np.hanning(frame_len)
    nfft = 1 << (frame_len - 1).bit_length()
    power = np.abs(np.fft.rfft(windows, n=nfft, axis=1)) ** 2
    fb = _mel_filterbank(nfft)
    return np.log(power @ fb.T + _LOG_FLOOR)


def frame_labels(utt: Utterance, frame_len: int = FRAME_LEN, hop: int = HOP) -> np.ndarray:
    """The symbol of the segment covering each frame's center sample."""
    if not utt.unit_labels:
        raise ValueError(f"utterance {utt.id} has no unit labels")
    n_frames = frame_count(len(utt.wave), frame_len, hop, f"utterance {utt.id}")
    centers = np.arange(n_frames) * hop + frame_len // 2
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


def build_corpus(
    out_dir,
    n_utterances: int,
    corpus_seed: int,
    vocab_size: int = 16,
    n_segments: int = 12,
) -> Path:
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
