"""Answer-checked benchmark of borelbox, end to end and layer by layer.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/``.
One process, one thread, a closed loop with a single client: each
operation starts when the previous one has returned.  The run sets the
workload up several times, then repeats passes over its operations for
``--seconds`` (at least two passes), checking every answer.

Timings are given at a reference host speed.  The host this benchmark was
tuned on switched between a fast speed and one up to twice as slow, for
seconds to minutes at a time, which moved a run's median by 40%.  So a fixed
pure-Python probe (``speed.py``) runs before, between and after the
operations and, every 20 ms, inside them; each operation's seconds, less
the probes inside it, are scaled by the probe's nominal time over the
median of the probes in and around it.  A subprocess is scaled by a bare
interpreter start made right after it instead.  An operation's time is
then its median over the passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time on untraced passes and half on passes traced by wrappers
installed from ``tracer.py``, and reports the per-layer metrics.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_PASSES = 2
COLD_STARTS_PER_PASS = 4   # after each pass, on workloads without their own subprocesses
IMPORT_PROBES = 9

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "cold_start_ms": "ms", "peak_rss_mb": "MB",
}
QUESTION_KINDS = ("count_ss", "count_ts", "gf", "list")


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name in ("correspondence.box_points", "qpoly.mul_coeff_ops", "qpoly.div_coeff_ops"):
        return "computed_count"   # derived from input sizes, not counted
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class Timed:
    """Calls made one after another, each timed, with a probe before the
    first, between each two and after the last.  A call that runs a child
    process (its ``spawns`` flag set) is followed by a bare interpreter
    start; any other call gets probes inside it too."""

    def __init__(self, calls, spawns=None):
        calls = list(calls)
        self.seconds: list[float] = []
        self.spans: list[tuple[float, float]] = []    # when each call began and ended
        self.inner: list[list[tuple[float, float]]] = []   # the probes inside each call
        self.bare: list[float | None] = []   # the bare start after each child-process call
        self.results: list = []
        self.probes: list[tuple[float, float]] = []   # between calls: (when it ended, seconds)
        self.verdicts: list[str] = []
        self.layers: dict[str, float] = {}
        speed.record(self.probes)
        for call, spawn in zip(calls, spawns or [False] * len(calls)):
            inner: list[tuple[float, float]] = []
            began = time.perf_counter()
            with speed.sampling(inner, not spawn):
                start = speed.clock()
                self.results.append(call())
                self.seconds.append(speed.clock() - start)
            self.spans.append((began, time.perf_counter()))
            self.inner.append(inner)
            self.bare.append(speed.interpreter_start(ROOT) if spawn else None)
            # Each call starts from an empty collector, so that a full
            # collection owed to earlier calls does not land in it: the
            # time of a call does not depend on the seeded order.
            gc.collect()
            speed.record(self.probes)

    def normalized(self) -> list[float]:
        """Each call's seconds at the reference speed.  For a call of t
        seconds in this process, the host's speed is the median of the
        probes inside it and of the probes between calls that ended within
        max(t, WINDOW) of its start or end.  Probes inside other calls are
        left out: they ran amid those calls' data and read slower.  A
        child-process call is scaled by the bare interpreter start that
        followed it instead: the child's speed follows the probes of the
        parent less closely."""
        stamps = [stamp for stamp, _ in self.probes]
        out = []
        for t, (began, ended), inner, bare in zip(self.seconds, self.spans, self.inner,
                                                  self.bare):
            if bare is not None:
                out.append(t * speed.BARE_START_SECONDS / bare)
                continue
            reach = max(t, speed.WINDOW)
            near = inner + self.probes[bisect.bisect_left(stamps, began - reach):
                                       bisect.bisect_right(stamps, ended + reach)]
            out.append(t * speed.REFERENCE_SECONDS / statistics.median(p for _, p in near))
        return out

    def slowdown(self) -> float:
        every = self.probes + [probe for inner in self.inner for probe in inner]
        return statistics.median(p for _, p in every) / speed.REFERENCE_SECONDS


def typical(runs: list[Timed]) -> list[float]:
    """Each call's median over the runs of its normalized seconds."""
    return [statistics.median(column) for column in zip(*(r.normalized() for r in runs))]


def _guarded(call):
    def run():
        try:
            return call()
        except Exception as exc:   # the op failed; the benchmark goes on
            return exc
    return run


def run_pass(ops, failed: str, tracer=None, layer_metrics=None) -> Timed:
    if tracer is not None:
        tracer.reset()
    done = Timed([_guarded(op.call) for op in ops], [op.subprocess for op in ops])
    if tracer is not None:
        done.layers = layer_metrics(tracer)
    done.verdicts = [failed if isinstance(result, Exception) else op.check(result)
                     for op, result in zip(ops, done.results)]
    done.results = []
    return done


def run_passes(ops, failed: str, seconds: float, between=(), **trace):
    """Passes over `ops` until `seconds` have gone by (at least
    MIN_PASSES), each followed by one pass over `between`."""
    passes, extra = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, failed, **trace))
        if between:
            extra.append(run_pass(between, failed))
    return passes, extra


def quantile(values: list[float], share: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def import_cli() -> None:
    """A fresh interpreter that imports the command line module."""
    subprocess.run([sys.executable, "-c", "import borelbox.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   check=True, capture_output=True, timeout=60)


def end_to_end(ops, passes, cold_passes, setups: Timed) -> dict:
    each = typical(passes)
    in_process = [t for op, t in zip(ops, each) if not op.subprocess]
    cold = [t for p in passes for op, t in zip(ops, p.normalized()) if op.subprocess]
    cold += [t for p in cold_passes for t in p.normalized()]
    return {
        "setup_s": statistics.median(setups.normalized()),
        "wall_s": sum(each),
        "op_p50_ms": statistics.median(in_process) * 1e3,
        "op_p90_ms": quantile(in_process, 0.90) * 1e3,
        "cold_start_ms": statistics.median(cold) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(ops, plain, traced, tracer) -> dict:
    metrics = {}
    for name, first in traced[0].layers.items():
        if per_layer_unit(name) == "s":
            metrics[name] = statistics.median(p.layers[name] / p.slowdown() for p in traced)
        else:
            metrics[name] = first
            values = [p.layers[name] for p in traced]
            if len(set(values)) > 1:
                print(f"warning: {name} differs between traced passes: {values}",
                      file=sys.stderr)
    plain_each = typical(plain)
    for kind in QUESTION_KINDS:
        metrics[f"{kind}_s"] = sum(t for op, t in zip(ops, plain_each) if op.kind == kind)
    verdicts = [v for p in plain + traced for v in p.verdicts]
    metrics["failed_ratio"] = sum(v != "ok" for v in verdicts) / len(verdicts)
    imports = Timed([import_cli] * IMPORT_PROBES, [True] * IMPORT_PROBES)
    metrics["cli.import_ms"] = statistics.median(imports.normalized()) * 1e3
    metrics["trace.overhead_ratio"] = sum(typical(traced)) / sum(plain_each)
    metrics["trace.absent_wraps"] = len(tracer.absent)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("enumerate", "bijection", "qseries", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "borelbox" / "__init__.py").is_file():
        print(f"error: no borelbox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import borelbox
    if Path(borelbox.__file__).resolve().parent != (SRC / "borelbox").resolve():
        print(f"error: imported borelbox from {borelbox.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    setup = getattr(workloads, "setup_" + args.workload)
    setups = Timed([functools.partial(setup, args.seed, ROOT)] * SETUP_REPEATS)
    ops = setups.results[-1]
    setups.results = []
    # The oracles and inputs live for the whole run; keep the collector
    # from scanning them on the library's time.
    gc.collect()
    gc.freeze()

    if args.trace:
        plain, _ = run_passes(ops, workloads.FAILED, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(tracing.WRAPS)
        try:
            traced, _ = run_passes(ops, workloads.FAILED, args.seconds / 2,
                                   tracer=tracer, layer_metrics=tracing.layer_metrics)
        finally:
            tracer.uninstall()
        for name in tracer.absent:
            print(f"absent: {name} is not in this version of borelbox", file=sys.stderr)
        passes = plain + traced
        metrics = per_layer(ops, plain, traced, tracer)
        units = {name: per_layer_unit(name) for name in metrics}
        note = f"{len(plain)} untraced and {len(traced)} traced passes over {len(ops)} ops"
    else:
        between = []
        if not any(op.subprocess for op in ops):
            between = [workloads.cold_start_op(ROOT, 3)] * COLD_STARTS_PER_PASS
        passes, cold_passes = run_passes(ops, workloads.FAILED, args.seconds, between)
        metrics = end_to_end(ops, passes, cold_passes, setups)
        units = END_TO_END_UNITS
        note = (f"{len(passes)} passes over {len(ops)} ops, "
                f"{len(cold_passes) * len(between)} extra cold starts, "
                f"{SETUP_REPEATS} set-ups, host slowdown "
                f"{min(p.slowdown() for p in passes):.2f}-{max(p.slowdown() for p in passes):.2f}")
        passes += cold_passes

    verdicts = [v for p in passes for v in p.verdicts]
    print(f"{args.workload} seed {args.seed}: {note}")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": workloads.WRONG not in verdicts,
        "attempted": len(verdicts),
        "failed": sum(v != workloads.OK for v in verdicts),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
