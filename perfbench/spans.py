"""Spans and counters recorded from outside the vicspeech package.

The package is not edited. Each layer is measured by rebinding its public
functions to wrappers. Modules import functions by name (``from .signal
import synth_noise``) and ``signal._babble`` reaches ``synth_utterance``
through its own module globals, so a function is rebound in the globals of
every module that calls it. Every binding is checked before it is replaced
and restored when the recording ends.

A :class:`Recorder` runs in one of two modes:

* light (tracing off): only the trainer step boundaries and the probe and
  variance-report calls are timed, which the end-to-end metrics need;
* traced: every wrapped call becomes a :class:`Span` (name, start, end,
  parent, trainer step), kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

# (span name, module that defines it, attribute, modules whose globals are rebound)
FUNCTIONS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("signal.build_corpus", "signal", "build_corpus", ("cli",)),
    ("signal.load_corpus", "signal", "load_corpus", ("trainer",)),
    ("signal.synth_utterance", "signal", "synth_utterance", ("signal",)),
    ("signal.synth_noise", "signal", "synth_noise", ("trainer", "analysis")),
    ("signal.mix_at_snr", "signal", "mix_at_snr", ("trainer", "analysis")),
    ("signal.extract_features", "signal", "extract_features", ("trainer", "analysis")),
    ("codebook.fit_kmeans", "codebook", "fit_kmeans", ("cli",)),
    ("codebook.assign", "codebook", "assign", ("codebook",)),
    ("model.apply_mask", "model", "apply_mask", ("trainer",)),
    ("model.forward", "model", "forward", ("trainer", "analysis")),
    ("model.predict_codewords", "model", "predict_codewords", ("trainer", "analysis")),
    ("model.backward", "model", "backward", ("trainer", "analysis")),
    ("losses.masked_prediction_loss", "losses", "masked_prediction_loss", ("trainer", "analysis")),
    ("losses.sample_frames", "losses", "sample_frames", ("trainer", "analysis")),
    ("losses.invariance", "losses", "invariance", ("trainer", "analysis")),
    ("losses.variance", "losses", "variance", ("trainer", "analysis")),
    ("losses.covariance", "losses", "covariance", ("trainer", "analysis")),
    ("trainer.make_batch", "trainer", "make_batch", ("trainer",)),
    ("trainer.adam_step", "trainer", "adam_step", ("trainer", "analysis")),
    ("trainer.pretrain_clean", "trainer", "pretrain_clean", ("cli", "analysis")),
    ("trainer.pretrain_noisy", "trainer", "pretrain_noisy", ("cli", "analysis")),
    ("analysis.linear_probe", "analysis", "linear_probe", ("analysis",)),
    ("analysis.fit_linear_probe", "analysis", "fit_linear_probe", ("analysis",)),
    ("analysis.channel_variance_report", "analysis", "channel_variance_report", ("analysis",)),
    ("analysis.ablation_run", "analysis", "ablation_run", ("analysis",)),
    ("analysis.write_probe_csv", "analysis", "write_probe_csv", ("analysis",)),
    ("checkpoint.save_codebook", "checkpoint", "save_codebook", ("cli",)),
    ("checkpoint.load_codebook", "checkpoint", "load_codebook", ("cli",)),
    ("checkpoint.save_encoder", "checkpoint", "save_encoder", ("cli",)),
    ("checkpoint.load_encoder", "checkpoint", "load_encoder", ("cli",)),
    ("config.load_config", "config", "load_config", ("cli",)),
)

# (span name, module, class, method); class attributes are shared by every caller
METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("model.EncoderState.to_vector", "model", "EncoderState", "to_vector"),
    ("model.EncoderState.from_vector", "model", "EncoderState", "from_vector"),
    ("trainer.TrainLog.write_loss_csv", "trainer", "TrainLog", "write_loss_csv"),
    ("analysis.VarianceReport.write_csv", "analysis", "VarianceReport", "write_csv"),
    ("analysis.VarianceReport.write_per_channel_csv", "analysis", "VarianceReport",
     "write_per_channel_csv"),
    ("analysis.AblationResult.write_csv", "analysis", "AblationResult", "write_csv"),
)

# (span name, call site) pairs that stay wrapped with tracing off; their
# entries and exits are the marks that `FastestRepeats` cuts a pass at
LIGHT = {
    ("trainer.make_batch", "trainer"),
    ("trainer.adam_step", "trainer"),
    ("analysis.linear_probe", "analysis"),
    ("analysis.channel_variance_report", "analysis"),
    ("signal.synth_noise", "trainer"),
    ("signal.synth_noise", "analysis"),
    ("model.forward", "trainer"),
    ("model.forward", "analysis"),
    ("model.backward", "trainer"),
    ("trainer.adam_step", "analysis"),
    ("signal.synth_utterance", "signal"),
    ("signal.mix_at_snr", "trainer"),
    ("signal.mix_at_snr", "analysis"),
    ("signal.extract_features", "trainer"),
    ("signal.extract_features", "analysis"),
}

# Pure functions of their arguments: calls with equal arguments do equal work.
KEYED = {"signal.synth_noise", "signal.synth_utterance"}

STEP = "trainer.step"
EXIT = "exit"
TIMED = {"analysis.linear_probe", "analysis.channel_variance_report"}  # per-call durations kept


def _module(name: str):
    return importlib.import_module(f"vicspeech.{name}")


def _note(name: str, args: tuple, kwargs: dict, out) -> Optional[dict]:
    """Attributes taken from a call's arguments and return value."""
    if name == "signal.synth_noise":
        return {"kind": args[0], "seed": args[1], "n": args[2]}
    if name == "model.forward":
        training = kwargs.get("training", args[2] if len(args) > 2 else False)
        return {"training": bool(training), "frames": int(out[0].shape[0])}
    if name == "model.apply_mask":
        return {"useful": len(out[1]) > 0}
    if name == "losses.sample_frames":
        return {"n": int(kwargs.get("n", args[2] if len(args) > 2 else 0)),
                "n_eff": int(out.Z.shape[0])}
    return None


@dataclass
class Span:
    name: str
    site: str
    start: float
    end: float = math.nan
    parent: int = -1
    step: int = -1  # run-wide trainer step id, -1 outside steps
    attrs: Optional[dict] = None

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    traced: bool
    spans: list[Span] = field(default_factory=list)
    durations: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    step_times: list[float] = field(default_factory=list)
    # (time, label) at the entry and exit of every marked call; see FastestRepeats
    marks: list[tuple[float, object]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _step_open: Optional[object] = None  # span index (traced) or start time (light)
    _step_id: int = -1

    # -- spans ---------------------------------------------------------
    def enter(self, name: str, site: str = "bench", mark: object = None):
        now = time.perf_counter()
        if mark is not None:
            self.marks.append((now, mark))
        if not self.traced:
            return now
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        step = self._step_id if self._step_open is not None or name == STEP else -1
        self.spans.append(Span(name, site, now, parent=parent, step=step))
        self._stack.append(idx)
        return idx

    def exit(self, name: str, token, mark: bool = False) -> None:
        now = time.perf_counter()
        if mark:
            self.marks.append((now, EXIT))
        if not self.traced:
            if name in TIMED:
                self.durations[name].append(now - token)
            return
        # Unwind to `token`: a call that raised can leave a step span open.
        while self._stack:
            top = self._stack.pop()
            if math.isnan(self.spans[top].end):
                self.spans[top].end = now
            if top == token:
                break
        if self._step_open is not None and not math.isnan(self.spans[self._step_open].end):
            self._step_open = None
        if name in TIMED:
            self.durations[name].append(now - self.spans[token].start)

    # -- trainer steps: start of make_batch to end of adam_step --------
    def begin_step(self) -> None:
        self._step_id += 1
        self._step_open = self.enter(STEP, "trainer") if self.traced else time.perf_counter()

    def end_step(self) -> None:
        if self._step_open is None:
            return
        if self.traced:
            idx = self._step_open
            self.exit(STEP, idx)
            self.step_times.append(self.spans[idx].dur)
        else:
            self.step_times.append(time.perf_counter() - self._step_open)
        self._step_open = None

    def dump(self, fh) -> None:
        """Write the spans as JSON lines to an open text file."""
        for s in self.spans:
            fh.write(json.dumps(asdict(s)) + "\n")


def _wrap(rec: Recorder, name: str, site: str, fn: Callable) -> Callable:
    begins = name == "trainer.make_batch" and site == "trainer"
    ends = name == "trainer.adam_step" and site == "trainer"
    marked = (name, site) in LIGHT

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if begins:
            rec.begin_step()
        mark = None
        if marked:
            mark = (name, args, tuple(sorted(kwargs.items()))) if name in KEYED else name
        token = rec.enter(name, site, mark)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit(name, token, marked)
        if rec.traced:
            rec.spans[token].attrs = _note(name, args, kwargs, out)
        if ends:
            rec.end_step()
        return out

    return wrapper


class FastestRepeats:
    """Time of one pass with each of its intervals at its fastest repeat.

    Passes are added one by one as their marks, and must run the same call
    sequence. The marks cut a pass into intervals. The k-th interval of
    every pass does the same work. So does the k-th interval inside every
    call of a pure function (see KEYED) with the same arguments. The host's
    speed drifts by tens of percent over seconds, so the fastest repeat of
    each interval estimates the uncontended time more steadily than a
    whole-pass statistic. Only the fastest times and one pass's keys are
    kept, so memory does not grow with the number of passes.
    """

    def __init__(self):
        self.best: dict[object, float] = {}
        self.keys: list[object] = []
        self.layout: Optional[list[object]] = None
        self.passes = 0

    def add(self, marks: list[tuple[float, object]]) -> bool:
        """Add one pass; False (and nothing added) if its call sequence differs."""
        labels = [label for _, label in marks]
        if self.layout is None:
            self.layout = labels
        elif labels != self.layout:
            return False
        keys = []
        open_calls: list[list] = []  # [label, intervals seen inside it so far]
        for k in range(1, len(marks)):
            label = labels[k - 1]
            if label == EXIT:
                open_calls.pop()
            else:
                open_calls.append([label, 0])
            keyed = next((c for c in reversed(open_calls) if isinstance(c[0], tuple)), None)
            if keyed is None:
                key = k
            else:
                key = (keyed[0], keyed[1])
                keyed[1] += 1
            self.best[key] = min(self.best.get(key, math.inf), marks[k][0] - marks[k - 1][0])
            keys.append(key)
        self.keys = keys
        self.passes += 1
        return True

    def total(self) -> float:
        return sum(self.best[key] for key in self.keys)


@contextmanager
def recording(rec: Recorder):
    """Rebind the wrapped functions for the duration of the block."""
    saved: list[tuple[object, str, object]] = []

    def rebind(owner, attr: str, new) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # Import every module first: a module imported while a name is rebound
    # would copy the wrapper into its own globals.
    for _, mod, _, sites in FUNCTIONS:
        for m in (mod,) + sites:
            _module(m)
    try:
        for name, mod, attr, sites in FUNCTIONS:
            fn = getattr(_module(mod), attr)
            for site in sites:
                if not rec.traced and (name, site) not in LIGHT:
                    continue
                holder = _module(site)
                if holder.__dict__.get(attr) is not fn:
                    raise RuntimeError(f"vicspeech.{site}.{attr} is not {name}; wrapping would miss calls")
                rebind(holder, attr, _wrap(rec, name, site, fn))
        if rec.traced:
            for name, mod, cls_name, attr in METHODS:
                cls = getattr(_module(mod), cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    rebind(cls, attr, classmethod(_wrap(rec, name, mod, raw.__func__)))
                else:
                    rebind(cls, attr, _wrap(rec, name, mod, raw))
        yield rec
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
        for owner, attr, orig in saved:
            if owner.__dict__[attr] is not orig:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")


# ----------------------------------------------------------------------
# analysis of recorded spans
# ----------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so children never overlap."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, child)]


def step_balance(spans: list[Span], selfs: list[float]) -> float:
    """Worst gap, in seconds, between a step span's duration and the sum of
    the self times of the step and every span inside it."""
    totals: dict[int, float] = defaultdict(float)
    for idx, s in enumerate(spans):
        # walk up to the enclosing step span, if any
        j = idx
        while j >= 0 and spans[j].name != STEP:
            j = spans[j].parent
        if j >= 0:
            totals[j] += selfs[idx]
    return max((abs(totals[j] - spans[j].dur) for j in totals), default=0.0)


def under(spans: list[Span], idx: int, ancestor: str) -> bool:
    """True when span `idx` runs inside a span named `ancestor`."""
    j = spans[idx].parent
    while j >= 0:
        if spans[j].name == ancestor:
            return True
        j = spans[j].parent
    return False
