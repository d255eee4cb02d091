#!/usr/bin/env python3
"""vicspeech benchmark: one workload per run.

    python3 perfbench/run.py --workload teacher --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run sets up its inputs several times, then repeats the workload's pass
(a closed loop of ``vicspeech.cli.run`` calls, one client) as many times as
fill ``--seconds`` at the workload's nominal pass time. It checks every
pass's outputs and prints a report, then one JSON line: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of traced
passes, which alternate with untraced ones so the tracing overhead shows.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# the benchmark's own modules, next to this file; none of them imports numpy
import layers
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
BLAS_THREADS = 1  # fixed: output bytes depend on the BLAS thread count
SETUP_SECONDS = 5.0  # set-ups fill this long at the nominal set-up time
MIN_REPEATS = 3  # the fastest-repeat estimate needs repeats
OVERRUN = 1.5  # past this share of its time a phase stops early, so a slow host or
# program gets fewer repeats instead of running over the benchmark's time budget


def repeats(seconds: float, nominal_s: float) -> int:
    """How many repeats fill `seconds` at `nominal_s` each.

    The count depends on the workload and `seconds` only, not on how fast
    this run goes. The fastest repeat of n falls as n grows, so a count that
    followed the speed would let a slow stretch of the host, or a faster
    program, change the estimator as well as the times."""
    return max(MIN_REPEATS, round(seconds / nominal_s))


def more(done: int, want: int, t_start: float, seconds: float) -> bool:
    """Whether a phase of nominal length `seconds` makes another repeat."""
    if done < MIN_REPEATS:
        return True
    return done < want and time.perf_counter() - t_start < OVERRUN * seconds


def _pin_blas_threads() -> None:
    # Read by OpenBLAS and friends when numpy loads them, so set before import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _blas_threads_in_use():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def fingerprint() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads_set": BLAS_THREADS, "blas_threads_in_use": _blas_threads_in_use()}


@dataclass
class Pass:
    wall: float
    digest: str
    problems: list[str]
    n_calls: int
    failed_calls: int
    quality: dict[str, float]
    rec: spans.Recorder


def cli_call(rec, argv: list[str]) -> int:
    """One closed-loop call: `vicspeech.cli.run(argv)` with its output captured."""
    from vicspeech import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        token = rec.enter("cli.run", mark="cli.run")
        try:
            rc = cli.run(argv)
        except Exception:  # the loop must go on; the call counts as failed
            rc = -1
            traceback.print_exc(file=err)
        finally:
            rec.exit("cli.run", token, mark=True)
    if rc != 0:
        print(f"perfbench: `{argv[0]}` returned {rc}\n{err.getvalue()[-3000:]}", file=sys.stderr)
    return rc


def run_pass(rec, argvs: list[list[str]]) -> tuple[float, int]:
    token = rec.enter("bench.pass", mark="bench.pass")
    t0 = time.perf_counter()
    failed = sum(cli_call(rec, argv) != 0 for argv in argvs)
    wall = time.perf_counter() - t0
    rec.exit("bench.pass", token, mark=True)
    return wall, failed


def measure(w, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    report: list[str] = []
    attempted = failed = 0

    # set-up, several times; the last one's files feed the timed passes
    setup_time, setup_digests = spans.FastestRepeats(), []
    n_setups = repeats(SETUP_SECONDS, w.nominal_setup_s)
    t_start = time.perf_counter()
    while more(len(setup_digests), n_setups, t_start, SETUP_SECONDS):
        r = len(setup_digests)
        if r:
            shutil.rmtree(inp.root)
        rec = spans.Recorder(traced=traced and r == 1)  # the first pays one-off costs
        with spans.recording(rec):
            inp = w.inputs(work / f"setup{r}", seed)
            cmds = w.setup_commands(inp)
            _, bad = run_pass(rec, cmds)
        if rec.traced:
            setup_rec = rec
        attempted += len(cmds)
        if bad:
            raise RuntimeError(f"set-up command failed for workload {w.name}")
        setup_digests.append(workloads.crc_of(w.setup_files(inp)))
        if not setup_time.add(rec.marks) or setup_digests[-1] != setup_digests[0]:
            failed += len(cmds)
            report.append(f"FAIL set-up {r} differs from the first: digest {setup_digests[-1]}")

    # timed passes
    out = work / "pass"
    out.mkdir()
    passes: list[Pass] = []
    pass_time = {False: spans.FastestRepeats(), True: spans.FastestRepeats()}  # by traced
    n_passes = repeats(seconds, w.nominal_pass_s)
    t_start = time.perf_counter()
    while more(len(passes), n_passes, t_start, seconds):
        rec = spans.Recorder(traced=traced and len(passes) % 2 == 1)
        with spans.recording(rec):
            argvs = w.commands(inp, out)
            wall, bad = run_pass(rec, argvs)
        problems, quality = w.check(inp, out)
        if not pass_time[rec.traced].add(rec.marks):
            problems.append("its call sequence differs from the first pass's")
        rec.marks = []
        passes.append(Pass(wall, workloads.crc_of(w.outputs(out)), problems, len(argvs), bad,
                           quality, rec))

    reference = passes[0].digest
    for i, p in enumerate(passes):
        if p.digest != reference:
            p.problems.append(f"output digest {p.digest} differs from the first pass's {reference}")
        attempted += p.n_calls
        failed += p.n_calls if p.problems else p.failed_calls
        for msg in p.problems:
            report.append(f"FAIL pass {i}{' (traced)' if p.rec.traced else ''}: {msg}")

    plain = [p for p in passes if not p.rec.traced]
    traced_recs = [p.rec for p in passes if p.rec.traced]
    self_check: list[str] = []
    if traced:
        expected = w.expected(inp)
        for rec in traced_recs:
            got = layers.counts(rec)
            for key, want in expected.items():
                if got[key] != want:
                    self_check.append(f"{key} = {got[key]}, expected {want}")
            selfs = spans.self_times(rec.spans)
            if min(selfs) < -1e-6:
                self_check.append("a span's children outlast it (negative self time)")
            if spans.step_balance(rec.spans, selfs) > 1e-6:
                self_check.append("step span time != step self + self times inside the step")
        table = layers.layer_table(traced_recs, setup_rec,
                                   pass_time[False].total(), pass_time[True].total())
        report += table.lines()
        metrics = table.json()
        WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
        trace_file = WORK / "traces" / f"{w.name}-seed{seed}.jsonl"
        with open(trace_file, "w", encoding="utf-8") as fh:
            for rec in [setup_rec] + traced_recs:
                rec.dump(fh)
        report.append(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics, lines = e2e_metrics(w, inp, setup_time, pass_time[False], plain)
        report += lines
    for msg in self_check:
        report.append(f"FAIL self-check: {msg}")

    report.append(f"digest {w.name} seed={seed} outputs={reference} setup={setup_digests[-1]} "
                  f"passes={len(passes)} (traced {len(traced_recs)})")
    report.append(f"metric failed_ratio = {failed / attempted:.6g} failed/attempted "
                  f"[{failed} of {attempted} calls]")
    return {"correct": failed == 0 and not self_check, "attempted": attempted, "failed": failed,
            "metrics": metrics, "report": report}


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))]


def e2e_metrics(w, inp, setup_time: spans.FastestRepeats, pass_time: spans.FastestRepeats,
                plain: list[Pass]) -> tuple[dict, list[str]]:
    med = statistics.median
    train_frames, eval_frames = w.frames(inp)
    wall = pass_time.total()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": setup_time.total(), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "frames_per_s": {"value": (train_frames + eval_frames) / wall, "unit": "frames/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    lines = [f"metric {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines[0] += f" [fastest repeats over {setup_time.passes} set-ups]"
    lines[1] += (f" [fastest repeats over {pass_time.passes} passes; pass walls "
                 f"{', '.join(f'{p.wall:.4f}' for p in plain)}, median {med([p.wall for p in plain]):.4f}]")
    lines[2] += f" [{train_frames + eval_frames} encoder frames per pass]"

    steps = [t for p in plain for t in p.rec.step_times]
    if steps:
        per_pass = [sum(p.rec.step_times) for p in plain]
        lines += [f"metric step_ms.p50 = {1000 * med(steps):.6g} ms [n={len(steps)} steps]",
                  f"metric step_ms.p90 = {1000 * _pct(steps, 90):.6g} ms [n={len(steps)} steps]",
                  f"metric train_frames_per_s = {train_frames / med(per_pass):.6g} frames/s "
                  f"[{train_frames} frames per pass, time inside steps]"]
    probes = [d for p in plain for d in p.rec.durations.get("analysis.linear_probe", [])]
    reports = [d for p in plain for d in p.rec.durations.get("analysis.channel_variance_report", [])]
    if probes:
        lines.append(f"metric probe_s = {med(probes):.6g} s [n={len(probes)} probes]")
    if reports:
        lines.append(f"metric variance_report_s = {med(reports):.6g} s [n={len(reports)} reports]")
    if eval_frames:
        eval_time = med([sum(p.rec.durations.get("analysis.linear_probe", []))
                         + sum(p.rec.durations.get("analysis.channel_variance_report", []))
                         for p in plain])
        lines.append(f"metric eval_frames_per_s = {eval_frames / eval_time:.6g} frames/s "
                     f"[{eval_frames} frames per pass, time inside probes and reports]")
    for key, value in plain[0].quality.items():
        lines.append(f"metric {key} = {value!r} [deterministic quality guard]")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "vicspeech" / "__init__.py").is_file():
        print(f"perfbench: no vicspeech package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    print(f"# machine {json.dumps(fingerprint())}")
    print(f"# workload {w.name}: {w.why}")
    work = WORK / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
