"""Per-layer metrics of the traced passes.

Every value is per timed pass unless its name says otherwise; a ratio is
given with its base count. Layers are the package's modules.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from spans import STEP, Recorder, self_times, step_balance, under

MODULES = ("cli", "config", "signal", "codebook", "model", "losses", "trainer", "analysis",
           "checkpoint")

# Metrics written to the result JSON. Their times are nonzero on every
# workload; a layer that some workload never calls appears as a share or a count.
JSON_METRICS = (
    "cli.self_ms", "config.self_ms", "checkpoint.self_ms", "signal.self_ms", "model.self_ms",
    "trainer.self_ms", "codebook.self_share", "losses.self_share", "analysis.self_share",
    "config.load_config.ms_per_call", "signal.extract_features.ms_per_call",
    "model.forward.ms_per_call", "signal.build_corpus.s", "codebook.fit_kmeans.s",
    "signal.synth_noise.calls", "signal.synth_noise.babble.calls",
    "signal.synth_noise.music.calls", "signal.synth_noise.natural.calls",
    "signal.synth_noise.dup_ratio", "signal.extract_features.calls",
    "signal.synth_utterance.calls", "codebook.assign.calls", "model.forward.train.calls",
    "model.forward.eval.calls", "model.forward.frames_per_call", "model.backward.calls",
    "model.apply_mask.useful_ratio", "losses.sample_frames.n_eff_ratio",
    "trainer.make_batch.calls", "trainer.adam_step.calls", "trainer.teacher_forward.hit_ratio",
    "analysis.fit_linear_probe.calls", "trace.spans", "trace.overhead_s",
)


class Table:
    """Named values with units; `None` marks a function the workload never calls."""

    def __init__(self):
        self.rows: dict[str, tuple[Optional[float], str, str]] = {}

    def put(self, name: str, value: Optional[float], unit: str, base: str = "") -> None:
        self.rows[name] = (value, unit, base)

    def lines(self) -> list[str]:
        out = []
        for name, (value, unit, base) in self.rows.items():
            shown = "n/a (not called)" if value is None else f"{value:.6g} {unit}"
            out.append(f"layer {name} = {shown}" + (f"  [{base}]" if base else ""))
        return out

    def json(self) -> dict:
        return {name: {"value": self.rows[name][0] or 0.0, "unit": self.rows[name][1]}
                for name in JSON_METRICS}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def counts(rec: Recorder) -> dict[str, int]:
    """Call counts of one traced pass, under the names `Workload.expected` uses."""
    spans = rec.spans
    c: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        if s.name == "trainer.adam_step" and s.site != "trainer":
            continue  # the probe's optimizer, not a training step
        c[f"{s.name}.calls"] += 1
        if s.name == "model.forward" and s.site == "trainer":
            c["model.forward.train.calls" if s.attrs["training"] else
              "trainer.teacher_forward.calls"] += 1
        if s.name == "signal.synth_noise":
            if under(spans, i, "analysis.linear_probe"):
                c["probe.synth_noise.calls"] += 1
            if under(spans, i, "analysis.channel_variance_report"):
                c["variance.synth_noise.calls"] += 1
    return c


def layer_table(traced: list[Recorder], setup: Recorder, plain_wall: float,
                traced_wall: float) -> Table:
    t = Table()
    n_pass = len(traced)
    spans = [s for rec in traced for s in rec.spans]
    selfs = [x for rec in traced for x in self_times(rec.spans)]
    walls = [s.dur for s in spans if s.name == "bench.pass"]
    pass_ms = 1000.0 * sum(walls) / n_pass

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    module_self: dict[str, float] = defaultdict(float)
    for s, x in zip(spans, selfs):
        key = s.name if s.name != "trainer.adam_step" or s.site == "trainer" else "probe.adam_step"
        calls[key] += 1
        total[key] += s.dur
        own[key] += x
        module_self[s.name.split(".")[0]] += x

    def per_call_ms(key: str) -> Optional[float]:
        return 1000.0 * total[key] / calls[key] if calls[key] else None

    def attr_spans(name: str, **match):
        return [s for s in spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in match.items())]

    steps = calls[STEP]

    # layers: self time per pass and share of the pass
    for m in MODULES:
        t.put(f"{m}.self_ms", 1000.0 * module_self[m] / n_pass, "ms")
        t.put(f"{m}.self_share", 1000.0 * module_self[m] / n_pass / pass_ms, "ratio")

    # signal
    noise = [s for s in spans if s.name == "signal.synth_noise"]
    for kind in ("babble", "music", "natural"):
        of_kind = [s for s in noise if s.attrs["kind"] == kind]
        t.put(f"signal.synth_noise.{kind}.ms_per_call",
              1000.0 * sum(s.dur for s in of_kind) / len(of_kind) if of_kind else None, "ms")
        t.put(f"signal.synth_noise.{kind}.calls", len(of_kind) / n_pass, "count")
    t.put("signal.synth_noise.calls", len(noise) / n_pass, "count")
    dups = 0
    for rec in traced:
        seen = set()
        for s in rec.spans:
            if s.name == "signal.synth_noise":
                key = (s.attrs["kind"], s.attrs["seed"], s.attrs["n"])
                dups += key in seen
                seen.add(key)
    t.put("signal.synth_noise.dup_ratio", _ratio(dups, len(noise)), "ratio",
          f"{dups / n_pass:g} repeats of {len(noise) / n_pass:g} calls")
    t.put("signal.mix_at_snr.ms_per_call", per_call_ms("signal.mix_at_snr"), "ms")
    t.put("signal.extract_features.ms_per_call", per_call_ms("signal.extract_features"), "ms")
    t.put("signal.extract_features.calls", calls["signal.extract_features"] / n_pass, "count")
    setup_calls = defaultdict(int)
    setup_total = defaultdict(float)
    for s in setup.spans:
        setup_calls[s.name] += 1
        setup_total[s.name] += s.dur
    t.put("signal.build_corpus.s", setup_total["signal.build_corpus"], "s", "one set-up")
    t.put("signal.synth_utterance.calls", float(setup_calls["signal.synth_utterance"]), "count",
          "one set-up")

    # codebook
    t.put("codebook.fit_kmeans.s", setup_total["codebook.fit_kmeans"], "s", "one set-up")
    t.put("codebook.assign.calls", calls["codebook.assign"] / n_pass, "count")

    # model
    train_fwd = attr_spans("model.forward", training=True)
    eval_fwd = attr_spans("model.forward", training=False)
    for mode, group in (("train", train_fwd), ("eval", eval_fwd)):
        t.put(f"model.forward.{mode}.ms_per_call",
              1000.0 * sum(s.dur for s in group) / len(group) if group else None, "ms")
        t.put(f"model.forward.{mode}.calls", len(group) / n_pass, "count")
    t.put("model.forward.ms_per_call", per_call_ms("model.forward"), "ms")
    fwd = train_fwd + eval_fwd
    t.put("model.forward.frames_per_call",
          _ratio(sum(s.attrs["frames"] for s in fwd), len(fwd)), "frames")
    t.put("model.backward.ms_per_call", per_call_ms("model.backward"), "ms")
    t.put("model.backward.calls", calls["model.backward"] / n_pass, "count")
    for method in ("to_vector", "from_vector"):
        key = f"model.EncoderState.{method}"
        t.put(f"{key}.ms_per_step", 1000.0 * total[key] / steps if steps else None, "ms")
    masks = [s for s in spans if s.name == "model.apply_mask"]
    useful = sum(1 for s in masks if s.attrs["useful"])
    t.put("model.apply_mask.useful_ratio", _ratio(useful, len(masks)), "ratio",
          f"{useful / n_pass:g} nonempty of {len(masks) / n_pass:g} attempts")

    # losses
    for fn in ("masked_prediction_loss", "sample_frames", "invariance", "variance", "covariance"):
        t.put(f"losses.{fn}.ms_per_call", per_call_ms(f"losses.{fn}"), "ms")
    sampled = [s for s in spans if s.name == "losses.sample_frames"]
    n_req = sum(s.attrs["n"] for s in sampled)
    n_eff = sum(s.attrs["n_eff"] for s in sampled)
    t.put("losses.sample_frames.n_eff_ratio", _ratio(n_eff, n_req), "ratio",
          f"{n_eff / n_pass:g} rows of {n_req / n_pass:g} requested")

    # trainer
    t.put("trainer.make_batch.self_ms_per_step",
          1000.0 * own["trainer.make_batch"] / steps if steps else None, "ms")
    t.put("trainer.make_batch.calls", calls["trainer.make_batch"] / n_pass, "count")
    t.put("trainer.adam_step.ms_per_call", per_call_ms("trainer.adam_step"), "ms")
    t.put("trainer.adam_step.calls", calls["trainer.adam_step"] / n_pass, "count")
    t.put("trainer.adam_step.probe_ms_per_call", per_call_ms("probe.adam_step"), "ms")
    t.put("trainer.step.self_ms", 1000.0 * own[STEP] / steps if steps else None, "ms",
          f"{steps / n_pass:g} steps")
    items = sum(1 for rec in traced for i, s in enumerate(rec.spans)
                if s.name == "model.forward" and s.site == "trainer" and s.attrs["training"]
                and under(rec.spans, i, "trainer.pretrain_noisy"))
    teacher_fwd = sum(1 for s in eval_fwd if s.site == "trainer")
    t.put("trainer.teacher_forward.hit_ratio", 1.0 - teacher_fwd / items if items else 0.0,
          "ratio", f"{teacher_fwd / n_pass:g} teacher forwards for {items / n_pass:g} student items")

    # analysis
    t.put("analysis.fit_linear_probe.ms_per_call", per_call_ms("analysis.fit_linear_probe"), "ms")
    t.put("analysis.fit_linear_probe.calls", calls["analysis.fit_linear_probe"] / n_pass, "count")
    for fn in ("linear_probe", "channel_variance_report"):
        key = f"analysis.{fn}"
        t.put(f"{key}.self_ms", 1000.0 * own[key] / n_pass if calls[key] else None, "ms")
    t.put("analysis.ablation_run.self_s",
          own["analysis.ablation_run"] / n_pass if calls["analysis.ablation_run"] else None, "s")

    # checkpoint, config
    for fn in ("save_encoder", "load_encoder", "load_codebook"):
        t.put(f"checkpoint.{fn}.ms", per_call_ms(f"checkpoint.{fn}"), "ms")
    t.put("config.load_config.ms_per_call", per_call_ms("config.load_config"), "ms")

    # the trace itself
    t.put("trace.spans", len(spans) / n_pass, "count")
    worst = max(step_balance(rec.spans, self_times(rec.spans)) for rec in traced)
    t.put("trace.step_balance_s", worst, "s", "worst |step span - sum of self times inside|")
    overhead = traced_wall - plain_wall
    t.put("trace.overhead_s", overhead, "s",
          f"{100.0 * overhead / plain_wall:+.2f}% of the untraced pass, fastest repeats")
    return t

