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

On-disk formats: WAV is PCM 16-bit signed little-endian mono; the corpus
manifest is a UTF-8 TSV with rows
``utterance_id<TAB>wav_relpath<TAB>n_samples<TAB>labels_relpath`` and label
files hold one ``symbol_id start_sample end_sample`` line per segment.
"""

from __future__ import annotations

import math
import wave as _wavfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .numerics import Matrix, as_matrix

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
    "FeatureSequence",
    "ManifestEntry",
    "synth_utterance",
    "synth_noise",
    "mix_at_snr",
    "measure_snr",
    "extract_features",
    "mel_filterbank",
    "read_wav",
    "write_wav",
    "write_labels",
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
    """Mono audio: float64 samples in [-1, 1] at a fixed sample rate."""

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.isfinite(self.samples).all():
            raise ValueError("waveform contains non-finite samples")
        if self.samples.size and np.abs(self.samples).max() > 1.0 + 1e-12:
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
                raise ValueError("negative symbol id")
            if start != pos or end <= start:
                raise ValueError("segments must tile the waveform without overlap")
            pos = end
        if self.unit_labels and pos != len(self.wave):
            raise ValueError("segments do not cover the waveform")


@dataclass
class NoisySample:
    """A clean/noisy pair mixed at an exact SNR.

    ``mixed * peak_scale`` restores the pre-normalization mix, so
    ``measure_snr(clean, mixed * peak_scale - clean)`` recovers ``snr_db``.
    """

    clean: Waveform
    noise_kind: str
    snr_db: float
    mixed: Waveform
    gain: float = 0.0
    peak_scale: float = 1.0


@dataclass
class FeatureSequence:
    """T x F matrix of log-filterbank frames with optional per-frame labels."""

    frames: Matrix
    frame_labels: Optional[np.ndarray] = None
    utterance_id: str = ""

    def __post_init__(self):
        self.frames = as_matrix(self.frames, "frames")
        if self.frame_labels is not None:
            self.frame_labels = np.asarray(self.frame_labels, dtype=np.int64).reshape(-1)
            if self.frame_labels.size != self.frames.shape[0]:
                raise ValueError("frame_labels length must equal frame count")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


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
def _harmonics(symbol: int) -> tuple[float, np.ndarray, np.ndarray]:
    # (f0, harmonic numbers, harmonic amplitudes) of a symbol's voicing
    f0, formant = _voice_params(symbol)
    n_harm = max(1, min(int(3800.0 / f0), _MAX_HARMONICS))
    h = np.arange(1, n_harm + 1)
    amps = np.exp(-0.5 * ((h * f0 - formant) / 260.0) ** 2) + 0.10 / h
    h.setflags(write=False)
    amps.setflags(write=False)
    return f0, h, amps


@dataclass
class _Segment:
    """One drawn segment: its symbol, length, harmonic phases and gain."""

    symbol: int
    n: int
    phases: np.ndarray
    gain: float


def _draw_segment(rng: np.random.Generator, symbol: int, n: int) -> _Segment:
    n_harm = _harmonics(symbol)[1].size
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_harm)
    return _Segment(symbol, n, phases, rng.uniform(0.5, 1.0))


def _render_segment(seg: _Segment, sample_rate: int) -> np.ndarray:
    f0, h, amps = _harmonics(seg.symbol)
    n = seg.n
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    for i in range(h.size):
        x += amps[i] * np.sin(2.0 * math.pi * f0 * h[i] * t + seg.phases[i])
    x *= seg.gain
    fade = max(1, min(int(0.005 * sample_rate), n // 4))
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(fade) / fade))
    x[:fade] *= ramp
    x[-fade:] *= ramp[::-1]
    return x


_BOUND_GRID = 128
_GRID_PHASES = 2.0 * math.pi * np.arange(_BOUND_GRID) / _BOUND_GRID


def _peak_bound(seg: _Segment) -> float:
    """An upper bound on ``max|_render_segment(seg)|``, from G = 128 phases
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
    sample_rate: int = SAMPLE_RATE,
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
        n = int(round(dur * sample_rate))
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
    pieces = [_render_segment(seg, sample_rate) for seg in plan[:n_cover]]
    peak = max(np.abs(x).max() for x in pieces)
    # a later segment can only raise the normalizing peak; try the loudest first
    for bound, seg in sorted(((_peak_bound(seg), seg) for seg in plan[n_cover:]),
                             key=lambda pair: pair[0], reverse=True):
        if bound <= peak:
            break
        peak = max(peak, np.abs(_render_segment(seg, sample_rate)).max())
    samples = np.concatenate(pieces)[:keep]
    samples *= _PEAK / peak
    labels = [(sym, start, min(end, keep)) for sym, start, end in labels[:n_cover]]
    return Utterance(id=f"u{seed}", wave=Waveform(sample_rate, samples), unit_labels=labels)


def _babble(rng: np.random.Generator, n: int, sample_rate: int) -> np.ndarray:
    # each voice is the start of a speech-like utterance long enough to crop
    n_voices = int(rng.integers(3, 9))
    n_segments = math.ceil(n / (_SEGMENT_MIN_S * sample_rate)) + 1
    x = np.zeros(n)
    for _ in range(n_voices):
        voice = synth_utterance(int(rng.integers(2**31)), n_segments=n_segments, vocab_size=8,
                                sample_rate=sample_rate, n_samples=n)
        x += voice.wave.samples
    return x


def _music(rng: np.random.Generator, n: int, sample_rate: int) -> np.ndarray:
    roots = 110.0 * 2.0 ** (np.array([0, 3, 5, 7, 10, 12]) / 12.0)
    ratios = np.array([1.0, 1.25, 1.5])
    harmonics = np.arange(1, 6)
    x = np.zeros(n)
    pos = 0
    while pos < n:
        dur = min(int(rng.uniform(0.6, 1.4) * sample_rate), n - pos)
        root = float(rng.choice(roots)) * float(rng.choice([1.0, 2.0]))
        freqs = (root * np.outer(ratios, harmonics)).ravel()
        amps = np.tile(1.0 / harmonics, ratios.size)
        keep = freqs < 4000.0
        freqs, amps = freqs[keep], amps[keep]
        phases = rng.uniform(0.0, 2.0 * math.pi, size=freqs.size)
        t = np.arange(dur) / sample_rate
        seg = np.zeros(dur)
        for i in range(freqs.size):
            seg += amps[i] * np.sin(2.0 * math.pi * freqs[i] * t + phases[i])
        x[pos : pos + dur] = seg
        pos += dur
    t_all = np.arange(n) / sample_rate
    lfo = rng.uniform(0.3, 1.0)
    x *= 0.55 + 0.45 * np.sin(2.0 * math.pi * lfo * t_all + rng.uniform(0.0, 2.0 * math.pi))
    return x


def _natural(rng: np.random.Generator, n: int, sample_rate: int) -> np.ndarray:
    # FFT at the next power of two (arbitrary lengths hit slow FFT paths), then crop.
    n_fft = 1 << (n - 1).bit_length()
    white = rng.standard_normal(n_fft)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    spectrum *= 1.0 / np.sqrt(np.maximum(freqs, 20.0))  # power ~ 1/f above 20 Hz
    x = np.fft.irfft(spectrum, n_fft)[:n]
    t = np.arange(n) / sample_rate
    env = np.full(n, 0.35)
    for _ in range(int(rng.integers(2, 6))):
        center = rng.uniform(0.0, n / sample_rate)
        width = rng.uniform(0.05, 0.3)
        env += rng.uniform(0.5, 2.0) * np.exp(-0.5 * ((t - center) / width) ** 2)
    return x * env


def synth_noise(kind: str, seed: int, n_samples: int, sample_rate: int = SAMPLE_RATE) -> Waveform:
    """Generate `n_samples` of babble, music, or natural (1/f) noise."""
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    if kind == "babble":
        x = _babble(rng, n_samples, sample_rate)
    elif kind == "music":
        x = _music(rng, n_samples, sample_rate)
    elif kind == "natural":
        x = _natural(rng, n_samples, sample_rate)
    else:
        raise ValueError(f"unknown noise kind {kind!r}; expected one of {NOISE_KINDS}")
    peak = np.abs(x).max()
    if peak == 0.0:
        raise ValueError(f"{kind} noise of {n_samples} samples from seed {seed} is silent")
    x = x * (_PEAK / peak)
    return Waveform(sample_rate, x)


# ----------------------------------------------------------------------
# mixing
# ----------------------------------------------------------------------

def _power(samples: np.ndarray) -> float:
    return float(np.mean(samples * samples))


def _as_samples(x) -> np.ndarray:
    if isinstance(x, Waveform):
        return x.samples
    return np.asarray(x, dtype=np.float64).reshape(-1)


def measure_snr(clean, noise_component) -> float:
    """10 log10 of the clean-to-noise power ratio, in dB."""
    c = _as_samples(clean)
    n = _as_samples(noise_component)
    if c.size != n.size:
        raise ValueError("clean and noise lengths differ")
    p_clean, p_noise = _power(c), _power(n)
    if p_clean == 0.0 or p_noise == 0.0:
        raise ValueError("SNR undefined for silent input")
    return 10.0 * math.log10(p_clean / p_noise)


def mix_at_snr(clean: Waveform, noise: Waveform, snr_db: float, noise_kind: str = "") -> NoisySample:
    """Mix `noise` into `clean` at exactly `snr_db`.

    The noise is cropped to the clean length and scaled by
    ``g = sqrt(P_clean / (P_noise * 10^(snr_db/10)))``; the mix is then
    peak-normalized only if it leaves [-1, 1]. ``snr_db = inf`` is the clean
    passthrough sentinel; any other value must lie within ``SNR_LIMIT_DB``.
    """
    if clean.sample_rate != noise.sample_rate:
        raise ValueError("sample rates differ")
    if math.isinf(snr_db) and snr_db > 0:
        mixed = Waveform(clean.sample_rate, clean.samples.copy())
        return NoisySample(clean=clean, noise_kind=noise_kind, snr_db=snr_db, mixed=mixed,
                           gain=0.0, peak_scale=1.0)
    if not abs(snr_db) <= SNR_LIMIT_DB:
        raise ValueError(f"snr_db must be +inf or in [-{SNR_LIMIT_DB:g}, {SNR_LIMIT_DB:g}], "
                         f"got {snr_db}")
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
    mixed = Waveform(clean.sample_rate, mixed_pre / scale)
    return NoisySample(clean=clean, noise_kind=noise_kind, snr_db=float(snr_db), mixed=mixed,
                       gain=gain, peak_scale=scale)


# ----------------------------------------------------------------------
# features
# ----------------------------------------------------------------------

def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def _mel_filterbank_cached(n_filters: int, nfft: int, sample_rate: int) -> Matrix:
    nyquist = sample_rate / 2.0
    points = _mel_to_hz(np.linspace(0.0, float(_hz_to_mel(nyquist)), n_filters + 2))
    freqs = np.linspace(0.0, nyquist, nfft // 2 + 1)
    fb = np.zeros((n_filters, freqs.size))
    for m in range(n_filters):
        lo, center, hi = points[m], points[m + 1], points[m + 2]
        rising = (freqs - lo) / (center - lo)
        falling = (hi - freqs) / (hi - center)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.setflags(write=False)
    return fb


def mel_filterbank(n_filters: int, nfft: int, sample_rate: int) -> Matrix:
    """Triangular mel-spaced filters over the rfft bins, shape (n_filters, nfft//2+1)."""
    return _mel_filterbank_cached(int(n_filters), int(nfft), int(sample_rate))


def _frame_label_lookup(segments: Sequence[tuple[int, int, int]], centers: np.ndarray) -> np.ndarray:
    starts = np.array([s[1] for s in segments])
    symbols = np.array([s[0] for s in segments], dtype=np.int64)
    idx = np.searchsorted(starts, centers, side="right") - 1
    return symbols[np.clip(idx, 0, len(segments) - 1)]


def extract_features(
    source: Union[Waveform, Utterance],
    frame_len: int = FRAME_LEN,
    hop: int = HOP,
    n_filters: int = N_FILTERS,
    segments: Optional[Sequence[tuple[int, int, int]]] = None,
    utterance_id: str = "",
) -> FeatureSequence:
    """Log mel-filterbank features: Hann window, power spectrum, triangular
    mel filters, then ``log(x + 1e-10)``.

    Frame count is ``1 + (len - frame_len) // hop``. When `source` is an
    :class:`Utterance` (or `segments` is given), each frame is labelled by
    the segment covering its center sample.
    """
    if isinstance(source, Utterance):
        wav = source.wave
        segments = source.unit_labels if segments is None else segments
        utterance_id = utterance_id or source.id
    else:
        wav = source
    if n_filters < 1:
        raise ValueError("n_filters must be >= 1")
    samples = wav.samples
    if samples.size < frame_len:
        raise ValueError("waveform shorter than one frame")
    n_frames = 1 + (samples.size - frame_len) // hop
    idx = np.arange(n_frames)[:, None] * hop + np.arange(frame_len)[None, :]
    windows = samples[idx] * np.hanning(frame_len)
    nfft = 1 << (frame_len - 1).bit_length()
    power = np.abs(np.fft.rfft(windows, n=nfft, axis=1)) ** 2
    fb = mel_filterbank(n_filters, nfft, wav.sample_rate)
    frames = np.log(power @ fb.T + _LOG_FLOOR)
    labels = None
    if segments:
        centers = np.arange(n_frames) * hop + frame_len // 2
        labels = _frame_label_lookup(segments, centers)
    return FeatureSequence(frames=frames, frame_labels=labels, utterance_id=utterance_id)


# ----------------------------------------------------------------------
# WAV + manifest I/O
# ----------------------------------------------------------------------

def write_wav(path, wav: Waveform) -> None:
    """Write PCM 16-bit signed little-endian mono."""
    ints = np.clip(np.rint(wav.samples * 32767.0), -32768, 32767).astype("<i2")
    with _wavfile.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(wav.sample_rate)
        fh.writeframes(ints.tobytes())


def read_wav(path) -> Waveform:
    with _wavfile.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit mono PCM")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return Waveform(rate, np.clip(samples, -1.0, 1.0))


def write_labels(path, unit_labels: Sequence[tuple[int, int, int]]) -> None:
    lines = [f"{sym} {start} {end}\n" for sym, start, end in unit_labels]
    Path(path).write_text("".join(lines), encoding="utf-8")


def load_labels(path) -> list[tuple[int, int, int]]:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        sym, start, end = line.split()
        out.append((int(sym), int(start), int(end)))
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


def load_manifest(path) -> list[ManifestEntry]:
    entries = []
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{path}:{ln}: expected 4 tab-separated fields")
        entries.append(ManifestEntry(parts[0], parts[1], int(parts[2]), parts[3]))
    return entries


def build_corpus(
    out_dir,
    n_utterances: int,
    corpus_seed: int,
    vocab_size: int = 16,
    n_segments: int = 12,
    sample_rate: int = SAMPLE_RATE,
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
        utt = synth_utterance(corpus_seed ^ i, n_segments=n_segments,
                              vocab_size=vocab_size, sample_rate=sample_rate)
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
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    utterances = []
    for entry in load_manifest(manifest_path):
        wav = read_wav(root / entry.wav_relpath)
        if len(wav) != entry.n_samples:
            raise ValueError(f"{entry.utterance_id}: wav length {len(wav)} != manifest {entry.n_samples}")
        labels = load_labels(root / entry.labels_relpath)
        utterances.append(Utterance(id=entry.utterance_id, wave=wav, unit_labels=labels))
    return utterances
