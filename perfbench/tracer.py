"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces module and class attributes of ``borelbox``
with wrappers that count calls and time spans; ``uninstall()`` puts the
originals back.  A function is patched wherever a ``borelbox`` module
holds it as a global (``borelbox.bijection.partition_to_ideal`` is the
same object as ``borelbox.correspondence.partition_to_ideal``), because
callers look those names up at run time.  A name that no longer exists is
recorded in ``absent`` and skipped.

Span accounting: every timed wrapper pushes a frame, and on exit adds its
duration to ``total[key]``, its duration minus the time of the spans
nested in it to ``self_time[key]``, and its duration to the parent frame.
Count-only wrappers (hot, fine-grained calls) add no span.
"""

from __future__ import annotations

import fnmatch
import functools
import sys
from collections import defaultdict

from speed import clock as _clock   # leaves out the speed probes run inside calls


class Tracer:
    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.total.clear()
        self.self_time.clear()
        self.count.clear()

    # ------------------------------------------------------------ wrappers

    def counter(self, key: str, fn):
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def span(self, key: str, fn, work=None, result=None):
        """Timed wrapper.  ``work(args)`` and ``result(value)`` may return
        (counter key, amount) pairs derived from the call's input or
        output; they run outside the timed interval."""
        stack, total, self_time, count = self._stack, self.total, self.self_time, self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[key + ".calls"] += 1
            if work is not None:
                name, amount = work(args)
                count[name] += amount
            stack.append(0.0)
            start = _clock()
            try:
                value = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                children = stack.pop()
                total[key] += elapsed
                self_time[key] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if result is not None:
                name, amount = result(value)
                count[name] += amount
            return value
        return wrapper

    def generator_span(self, key: str, fn):
        """Timed wrapper for a generator function: each resumption is a
        span, so time spent by the consumer between items is excluded."""
        stack, total, self_time, count = self._stack, self.total, self.self_time, self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[key + ".calls"] += 1
            items = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = _clock()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    elapsed = _clock() - start
                    children = stack.pop()
                    total[key] += elapsed
                    self_time[key] += elapsed - children
                    if stack:
                        stack[-1] += elapsed
                yield item
        return wrapper

    # ------------------------------------------------------------ patching

    def install(self, wraps) -> None:
        """Apply ``wraps``: (module, attribute path, factory) triples, where
        the path is ``name`` or ``Class.name`` and may hold a ``*`` glob,
        and ``factory(tracer, original)`` returns the wrapper."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "borelbox" or name.startswith("borelbox."))]
        for module_name, path, factory in wraps:
            module = sys.modules.get("borelbox." + module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            names = (sorted(n for n in vars(owner) if fnmatch.fnmatchcase(n, attr))
                     if owner is not None else [])
            if not names:
                self.absent.append(f"{module_name}.{path}")
                continue
            for name in names:
                raw = vars(owner)[name]
                if isinstance(owner, type):
                    self._patch_class(owner, raw, factory)
                else:
                    self._patch_function(modules, raw, factory)

    def _patch_class(self, cls, raw, factory) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(factory(self, raw.__func__))
        else:
            new = factory(self, raw)
        for name, value in list(vars(cls).items()):
            if value is raw:   # aliases such as __contains__ = contains
                self._undo.append((cls, name, raw))
                setattr(cls, name, new)

    def _patch_function(self, modules, fn, factory) -> None:
        new = factory(self, fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, name, fn))
                    setattr(module, name, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# ---------------------------------------------------------------- the plan

def _span(key, **hooks):
    return lambda tracer, fn: tracer.span(key, fn, **hooks)


def _count(key):
    return lambda tracer, fn: tracer.counter(key, fn)


def _generator(key):
    return lambda tracer, fn: tracer.generator_span(key, fn)


def _nodes(tracer, fn):
    """Count `_Budget.tick` calls that return: the nodes visited (a tick
    that exceeds the budget raises instead)."""
    count = tracer.count

    def wrapper(*args, **kwargs):
        value = fn(*args, **kwargs)
        count["enumeration.nodes"] += 1
        return value
    return functools.wraps(fn)(wrapper)


def _requirements(tracer, fn):
    return tracer.span("enumeration.requirements", fn,
                       result=lambda value: ("enumeration.requirements_entries", len(value[0])))


def _mode(tracer, fn):
    """`_mode` returns (order, requires, finalize); time finalize as the
    re-validation of each candidate and count the ones it keeps."""
    def wrapper(*args, **kwargs):
        value = fn(*args, **kwargs)
        if not (isinstance(value, tuple) and value and callable(value[-1])):
            return value
        finalize = tracer.span(
            "enumeration.revalidate", value[-1],
            result=lambda part: ("enumeration.rejected" if part is None
                                 else "enumeration.yielded", 1))
        return value[:-1] + (finalize,)
    return functools.wraps(fn)(wrapper)


def _tally(tracer, fn):
    """Time the walk, and time the `stat` callable it is handed."""
    walk = tracer.span("enumeration.walk", fn)

    def wrapper(*args, **kwargs):
        if len(args) >= 4:
            args = args[:3] + (tracer.span("enumeration.stat", args[3]),) + args[4:]
        elif "stat" in kwargs:
            kwargs["stat"] = tracer.span("enumeration.stat", kwargs["stat"])
        return walk(*args, **kwargs)
    return functools.wraps(fn)(wrapper)


def _parser(tracer, fn):
    """Time building the parser and parsing argv."""
    build = tracer.span("cli.parse", fn)

    def wrapper(*args, **kwargs):
        parser = build(*args, **kwargs)
        parser.parse_args = tracer.span("cli.parse", parser.parse_args)
        return parser
    return functools.wraps(fn)(wrapper)


def _scan_from_partition(args):
    # partition_to_ideal scans {0..n}^d, n the bounding side.
    cells = args[0].cells
    side = 1 + max(max(c) for c in cells) if cells else 0
    return "correspondence.box_points", (side + 1) ** args[0].dim


def _scan_from_ideal(args):
    # ideal_to_partition scans {0..n-1}^d, n the largest pure power degree.
    pure = [sum(g) for g in args[0].gens if sum(1 for e in g if e) == 1]
    return "correspondence.box_points", max(pure, default=0) ** args[0].dim


def _mul_ops(args):
    return "qpoly.mul_coeff_ops", len(args[0].coeffs) * len(args[1].coeffs)


def _div_ops(args):
    steps = len(args[0].coeffs) - len(args[1].coeffs) + 1
    return "qpoly.div_coeff_ops", max(steps, 0) * len(args[1].coeffs)


WALK = "enumeration.walk"

WRAPS = (
    ("enumeration", "_cell_requirements", _requirements),
    ("enumeration", "_orbit_requirements", _requirements),
    ("enumeration", "_Budget.tick", _nodes),
    ("enumeration", "_mode", _mode),
    ("enumeration", "_tally", _tally),
    ("enumeration", "enumerate_partitions", _generator(WALK)),
    ("enumeration", "count_ss", _span(WALK)),
    ("enumeration", "count_ts", _span(WALK)),
    ("enumeration", "count_table", _span(WALK)),
    ("enumeration", "cell_gf_ss", _span(WALK)),
    ("enumeration", "orbit_gf_ts", _span(WALK)),
    ("enumeration", "hawkes_check", _span(WALK)),
    ("enumeration", "qtspp", _span("enumeration.qtspp")),
    ("enumeration", "stembridge_t3", _span("enumeration.stembridge_t3")),
    ("partitions", "Partition._trusted", _count("partitions.trusted_builds")),
    ("partitions", "Partition.__init__", _count("partitions.validated_builds")),
    ("partitions", "Partition.hook_vector", _count("partitions.hook_vector_calls")),
    ("partitions", "Partition.is_strongly_stable", _span("partitions.is_strongly_stable")),
    ("partitions", "Partition.is_totally_symmetric", _span("partitions.is_totally_symmetric")),
    ("ideals", "MonomialIdeal.__init__", _count("ideals.construct_calls")),
    ("ideals", "MonomialIdeal.contains", _count("ideals.contains_calls")),
    ("ideals", "MonomialIdeal.bgens", _span("ideals.bgens")),
    ("ideals", "MonomialIdeal.is_strongly_stable", _span("ideals.is_strongly_stable")),
    ("ideals", "minimalize", _span("ideals.minimalize")),
    ("ideals", "borel_closure", _span("ideals.borel_closure")),
    ("correspondence", "partition_to_ideal",
     _span("correspondence.partition_to_ideal", work=_scan_from_partition)),
    ("correspondence", "ideal_to_partition",
     _span("correspondence.ideal_to_partition", work=_scan_from_ideal)),
    ("bijection", "lambda_map", _span("bijection.lambda_map")),
    ("bijection", "omega", _span("bijection.omega")),
    ("bijection", "lambda_inv", _span("bijection.lambda_inv")),
    ("bijection", "omega_inv", _span("bijection.omega_inv")),
    ("bijection", "ss_to_ts_partition", _span("bijection.conversion")),
    ("bijection", "ts_to_ss_partition", _span("bijection.conversion")),
    ("qpoly", "QPolynomial.__mul__", _span("qpoly.mul", work=_mul_ops)),
    ("qpoly", "QPolynomial.exact_div", _span("qpoly.div", work=_div_ops)),
    ("cli", "build_parser", _parser),
    ("cli", "_read_payload", _span("cli.read")),
    ("cli", "_emit_json", _span("cli.emit")),
    ("cli", "_cmd_*", _span("cli.handler")),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures for one traced pass: seconds and call counts."""
    t, s, c = tracer.total, tracer.self_time, tracer.count
    return {
        "enumeration.requirements_s": t["enumeration.requirements"],
        "enumeration.requirements_entries": c["enumeration.requirements_entries"],
        "enumeration.nodes": c["enumeration.nodes"],
        "enumeration.yielded": c["enumeration.yielded"],
        "enumeration.rejected": c["enumeration.rejected"],
        "enumeration.walk_self_s": s[WALK],
        "enumeration.revalidate_s": t["enumeration.revalidate"],
        "enumeration.stat_s": t["enumeration.stat"],
        "enumeration.qtspp_s": t["enumeration.qtspp"],
        "enumeration.stembridge_t3_s": t["enumeration.stembridge_t3"],
        "partitions.trusted_builds": c["partitions.trusted_builds"],
        "partitions.validated_builds": c["partitions.validated_builds"],
        "partitions.hook_vector_calls": c["partitions.hook_vector_calls"],
        "partitions.is_strongly_stable_calls": c["partitions.is_strongly_stable.calls"],
        "partitions.is_totally_symmetric_calls": c["partitions.is_totally_symmetric.calls"],
        "ideals.construct_calls": c["ideals.construct_calls"],
        "ideals.minimalize_s": t["ideals.minimalize"],
        "ideals.contains_calls": c["ideals.contains_calls"],
        "ideals.bgens_s": t["ideals.bgens"],
        "ideals.is_strongly_stable_s": t["ideals.is_strongly_stable"],
        "ideals.borel_closure_s": t["ideals.borel_closure"],
        "correspondence.partition_to_ideal_s": t["correspondence.partition_to_ideal"],
        "correspondence.ideal_to_partition_s": t["correspondence.ideal_to_partition"],
        "correspondence.box_points": c["correspondence.box_points"],
        "bijection.lambda_map_s": t["bijection.lambda_map"],
        "bijection.omega_s": t["bijection.omega"],
        "bijection.lambda_inv_s": t["bijection.lambda_inv"],
        "bijection.omega_inv_s": t["bijection.omega_inv"],
        "bijection.self_s": s["bijection.conversion"],
        "qpoly.mul_calls": c["qpoly.mul.calls"],
        "qpoly.mul_s": t["qpoly.mul"],
        "qpoly.mul_coeff_ops": c["qpoly.mul_coeff_ops"],
        "qpoly.div_calls": c["qpoly.div.calls"],
        "qpoly.div_s": t["qpoly.div"],
        "qpoly.div_coeff_ops": c["qpoly.div_coeff_ops"],
        "cli.parse_s": t["cli.parse"],
        "cli.read_s": t["cli.read"],
        "cli.emit_s": t["cli.emit"],
        "cli.handler_self_s": s["cli.handler"],
    }
