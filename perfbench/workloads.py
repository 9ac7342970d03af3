"""The four benchmark workloads: seeded inputs, the operations, and their oracles.

Each workload's ``setup_<name>(seed, root)`` returns a list of :class:`Op`.  An op is
one question a user asks: ``call`` runs it against the library (looking
every function up on its module at call time, so the tracer's wrappers
see it), ``check`` judges the result.  Oracles come from outside the code
they check: published sequence values, closed forms, identities of the
paper, and small checkers written here.

``check`` returns ``OK``, ``WRONG`` (an answer was produced and it is
wrong) or ``FAILED`` (the operation did not end the way it should: an
exception, a wrong exit code, or a missing ``error:`` line).
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import comb
from pathlib import Path
from typing import Callable

import borelbox as bb
import borelbox.cli

OK, WRONG, FAILED = "ok", "wrong", "failed"

# Totally symmetric plane partitions in the n-box, n = 0..10 (OEIS A005157).
A005157 = (1, 2, 5, 16, 66, 352, 2431, 21760, 252586, 3803648, 74327145)


@dataclass
class Op:
    kind: str                      # question class, for per-class timings
    label: str                     # the full input, for determinism checks
    call: Callable[[], object]
    check: Callable[[object], str]
    subprocess: bool = False       # a real `python -m borelbox` process


# ---------------------------------------------------------------- checkers
# Written from the definitions, sharing no code with the library.

def _side(cells) -> int:
    return 1 + max(max(c) for c in cells) if cells else 0


def _is_partition(cells) -> bool:
    members = set(cells)
    return all(c[:j] + (c[j] - 1,) + c[j + 1:] in members
               for c in members for j in range(len(c)) if c[j] > 0)


def _is_strongly_stable(cells) -> bool:
    members = set(cells)
    for c in members:
        arms = []
        for j in range(len(c)):
            h = 0
            while c[:j] + (c[j] + h + 1,) + c[j + 1:] in members:
                h += 1
            arms.append(h)
        if any(a > b for a, b in zip(arms, arms[1:])):
            return False
    return True


def _is_totally_symmetric(cells) -> bool:
    members = set(cells)
    return all(c[:j] + (c[j + 1], c[j]) + c[j + 2:] in members
               for c in members for j in range(len(c) - 1))


def _orbit_count(cells) -> int:
    return len({tuple(sorted(c)) for c in cells})


def _outer_corners(cells, dim: int) -> list[list[int]]:
    """Minimal exponent vectors outside the cell set: the generators of
    the complement ideal (the unit ideal for no cells)."""
    members = set(cells)
    n = _side(cells)
    out = []
    for a in product(range(n + 1), repeat=dim):
        if a not in members and all(a[j] == 0 or a[:j] + (a[j] - 1,) + a[j + 1:] in members
                                    for j in range(dim)):
            out.append(list(a))
    return sorted(out)


def _render(cells, dim: int) -> str:
    """Ferrers rows (widest at the bottom) for d=2, stack heights for d=3."""
    if dim == 2:
        widths = Counter(c[1] for c in cells)
        return "\n".join("#" * widths[b] for b in range(max(widths), -1, -1))
    heights = Counter((c[0], c[1]) for c in cells)
    rows = []
    for b in range(1 + max(b for _, b in heights)):
        row = []
        while (len(row), b) in heights:
            row.append(str(heights[len(row), b]))
        rows.append(" ".join(row))
    return "\n".join(rows)


def tspp_count(n: int) -> int:
    """The triple product over 1 <= i <= j <= k <= n of
    (i+j+k-1)/(i+j+k-2), by prime exponents in integers: no fractions."""
    sums = Counter(i + j + k for i in range(1, n + 1) for j in range(i, n + 1)
                   for k in range(j, n + 1))
    exponent: Counter = Counter()
    for s, mult in sums.items():
        for value, sign in ((s - 1, 1), (s - 2, -1)):
            p = 2
            while value > 1:
                while value % p == 0:
                    exponent[p] += sign * mult
                    value //= p
                p += 1
    if any(e < 0 for e in exponent.values()):
        raise ArithmeticError(f"product for n={n} is not an integer")
    out = 1
    for p, e in exponent.items():
        out *= p ** e
    return out


def _cells(p) -> tuple:
    return tuple(tuple(c) for c in p.cells)


# ---------------------------------------------------------------- enumerate

def _expect_equal(expected):
    return lambda got: OK if got == expected else WRONG


def _check_listing(expected: int, side: int, valid: Callable) -> Callable:
    def check(parts) -> str:
        cell_sets = {_cells(p) for p in parts}
        if len(parts) != expected or len(cell_sets) != expected:
            return WRONG
        if any(_side(c) > side or not valid(c) for c in cell_sets):
            return WRONG
        return OK
    return check


def _gf_check(reference: tuple) -> Callable:
    return lambda poly: OK if tuple(poly.coeffs) == reference else WRONG


def setup_enumerate(seed: int, root: Path) -> list[Op]:
    """A fixed list of box questions; the seed is unused."""
    # q-TSPP identity: cells on the stable side and orbits on the symmetric
    # side both follow the boxed product.
    q6 = tuple(bb.qtspp(6).coeffs)
    return [
        Op("count_ss", "count_ss(3,6)", lambda: bb.count_ss(3, 6), _expect_equal(A005157[6])),
        Op("count_ts", "count_ts(3,6)", lambda: bb.count_ts(3, 6), _expect_equal(A005157[6])),
        Op("count_ss", "count_ss(2,12)", lambda: bb.count_ss(2, 12), _expect_equal(2 ** 12)),
        # Box transposition: (d=4, n=4) matches (d=3, n=5).
        Op("count_ts", "count_ts(4,4)", lambda: bb.count_ts(4, 4), _expect_equal(A005157[5])),
        Op("count_ss", "hawkes_check(3,5)", lambda: bb.hawkes_check(3, 5), _expect_equal(True)),
        Op("gf", "cell_gf_ss(3,6)", lambda: bb.cell_gf_ss(3, 6), _gf_check(q6)),
        Op("gf", "orbit_gf_ts(3,6)", lambda: bb.orbit_gf_ts(3, 6), _gf_check(q6)),
        Op("list", "enumerate_partitions(3,6,strongly_stable)",
           lambda: list(bb.enumerate_partitions(3, 6, "strongly_stable")),
           _check_listing(A005157[6], 6, _is_strongly_stable)),
        Op("list", "enumerate_partitions(2,8,all)",
           lambda: list(bb.enumerate_partitions(2, 8, "all")),
           _check_listing(comb(16, 8), 8, _is_partition)),
    ]


# ---------------------------------------------------------------- bijection

# Ops per dense box.  Sorted by time the boxes form clusters, (2,10) the
# fastest and (4,4) the slowest; these counts put the median op inside the
# (3,5) cluster, and the 25% sparse share puts p90 inside the sparse ops.
DENSE_PICKS = {(2, 10): 54, (3, 5): 42, (4, 4): 30}
SPARSE_LENGTHS = (12, 15, 18, 21, 24, 27, 30)
SPARSE_WIDTHS = (1, 1, 2, 2, 3, 3)   # the a of each sparse op, per length


def dense_pools() -> dict:
    """Every nonempty strongly stable partition of each dense box."""
    return {box: [p for p in bb.enumerate_partitions(*box, "strongly_stable") if len(p)]
            for box in DENSE_PICKS}


def stratified(rng: random.Random, pool: list, k: int) -> list:
    """k picks, one from each of k equal strata of the pool sorted by
    size, so every seed draws the same spread of sizes."""
    pool = sorted(pool, key=lambda p: (len(p), p.cells))
    cuts = [round(i * len(pool) / k) for i in range(k + 1)]
    return [pool[rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]


def sparse_partition(a: int, length: int):
    """Complement of borel_closure([x, y^a, z^L]) in three variables: the
    cells (0, b, c) with b < a and c < L - b.  About a*L cells in an
    L-sided box."""
    cells = [(0, b, c) for b in range(a) for c in range(length - b)]
    return bb.Partition(3, cells)


def _round_trip_check(p) -> Callable:
    cells = _cells(p)
    side = _side(cells)

    def check(result) -> str:
        image, back = result
        image_cells = _cells(image)
        if (_cells(back) != cells or _side(image_cells) != side
                or _orbit_count(image_cells) != len(cells)
                or not _is_totally_symmetric(image_cells)):
            return WRONG
        return OK
    return check


def _round_trip(p) -> Callable:
    def call():
        image = bb.ss_to_ts_partition(p)
        return image, bb.ts_to_ss_partition(image)
    return call


def setup_bijection(seed: int, root: Path) -> list[Op]:
    """Dense strongly stable partitions sampled from small boxes, plus
    sparse ones whose box scan grows as L^3, in a seeded order."""
    rng = random.Random(seed)
    picks = [("dense", p) for box, pool in dense_pools().items()
             for p in stratified(rng, pool, DENSE_PICKS[box])]
    picks += [("sparse", sparse_partition(a, length))
              for length in SPARSE_LENGTHS for a in SPARSE_WIDTHS]
    rng.shuffle(picks)
    return [Op(kind, json.dumps(p.to_json_dict()), _round_trip(p), _round_trip_check(p))
            for kind, p in picks]


# ---------------------------------------------------------------- qseries

def setup_qseries(seed: int, root: Path) -> list[Op]:
    """qtspp(n) for n = 1..10 and stembridge_t3 at three larger sides; the
    seed is unused."""
    orbit_gfs = {n: tuple(bb.orbit_gf_ts(3, n).coeffs) for n in range(1, 7)}
    ops = []
    for n in range(1, 11):
        def check(poly, n=n) -> str:
            if poly.evaluate(1) != A005157[n]:
                return WRONG
            if n in orbit_gfs and tuple(poly.coeffs) != orbit_gfs[n]:
                return WRONG
            return OK
        ops.append(Op("qtspp", f"qtspp({n})", lambda n=n: bb.qtspp(n), check))
    for n in (20, 30, 40):
        ops.append(Op("stembridge_t3", f"stembridge_t3({n})", lambda n=n: bb.stembridge_t3(n),
                      _expect_equal(tspp_count(n))))
    return ops


# ---------------------------------------------------------------- cli

CLI_OBJECT_OPS = 82
CLI_BOX_OPS = 38
CLI_SUBPROCESS_OPS = 20
# Inputs the library mishandled when this benchmark was written: booleans
# pass as integers (exit 0 instead of 1) and deep nesting escapes as
# RecursionError.  They stay in the mix and count as failed until the
# library rejects them.
BOOLEAN_INPUTS = (
    (["check-ideal"], '{"dim": true, "gens": [[1]]}'),
    (["check-partition"], '{"dim": 2, "cells": [[false, false], [true, false]]}'),
    (["partition2ideal"], '{"dim": 2, "cells": [[false, false], [true, false]]}'),
    (["render", "--style", "ferrers"], '{"dim": 2, "cells": [[false, false], [true, false]]}'),
    (["ideal2partition"], '{"dim": 2, "gens": [[true, 0], [0, true]]}'),
    (["check-partition"], '{"dim": true, "cells": [[0]]}'),
)
DEEP_INPUTS = (
    (["check-partition"], "[" * 100000),
    (["check-ideal"], '{"dim": 2, "gens": ' + "[" * 100000),
    (["closure"], '{"gens": ' + "[" * 50000 + "]" * 50000 + "}"),
)
# (argv, stdin, exit code the README prescribes)
MALFORMED_INPUTS = (
    (["check-partition"], "not json", 1),
    (["check-partition"], "", 1),
    (["check-partition"], "[1, 2, 3]", 1),
    (["check-partition"], '{"dim": 2}', 1),
    (["check-partition"], '{"dim": 2, "cells": [[0, -1]]}', 1),
    (["check-partition"], '{"dim": 2, "cells": [[0, 0, 0]]}', 1),
    (["partition2ideal"], '{"dim": 2, "cells": [[1, 0]]}', 1),
    (["check-ideal"], '{"dim": "2", "gens": []}', 1),
    (["closure"], '{"gens": 5}', 1),
    (["ss2ts"], '{"dim": 2, "cells": [[0, 0], [1, 0]]}', 2),
    (["ss2ts"], '{"dim": 3, "cells": []}', 2),
    (["ts2ss"], '{"dim": 2, "cells": [[0, 0], [0, 1]]}', 2),
    (["ideal2partition"], '{"dim": 2, "gens": [[1, 0]]}', 2),
    (["bgens"], '{"dim": 2, "gens": [[0, 1], [2, 0]]}', 2),
    (["lambda"], '{"dim": 2, "gens": [[2, 0], [0, 1]]}', 2),
    (["omega"], '{"dim": 2, "side": 2, "elements": [[1, 0]]}', 2),
    (["closure"], '{"gens": []}', 2),
    (["render", "--style", "ferrers"], '{"dim": 3, "cells": [[0, 0, 0]]}', 2),
    (["count", "--d", "3", "--n", "4", "--budget", "50"], "", 3),
    (["gf", "--d", "3", "--n", "4", "--budget", "50"], "", 3),
    (["count", "--d", "3", "--n", "4", "--list", "--predicate", "ss", "--budget", "20"], "", 3),
)


def _cli_check(expected_code: int, expected_lines=None, expected_text=None) -> Callable:
    """Judge (exit code, stdout, stderr, exception name) from one CLI call.

    Exit 0 must print exactly the expected output; any other exit must
    print one `error:` line on stderr (a streamed listing may already have
    printed some lines before a budget stops it)."""
    def check(result) -> str:
        code, out, err, raised = result
        if raised is not None or code != expected_code:
            return FAILED
        if code != 0:
            lines = err.splitlines()
            return OK if len(lines) == 1 and lines[0].startswith("error: ") else FAILED
        if err:
            return FAILED
        if expected_text is not None:
            return OK if out == expected_text else WRONG
        try:
            got = [json.loads(line) for line in out.splitlines()]
        except ValueError:
            return WRONG
        return OK if got == expected_lines else WRONG
    return check


def _cli_call(argv: list[str], stdin: str) -> Callable:
    def call():
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
        out, err = sys.stdout, sys.stderr
        raised = None
        try:
            code = bb.cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:   # a traceback the user would see
            code, raised = None, type(exc).__name__
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out.getvalue(), err.getvalue(), raised
    return call


def _subprocess_call(root: Path, argv: list[str], stdin: str) -> Callable:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")

    def call():
        proc = subprocess.run([sys.executable, "-m", "borelbox", *argv], input=stdin,
                              capture_output=True, text=True, cwd=root, env=env,
                              timeout=60)
        return proc.returncode, proc.stdout, proc.stderr, None
    return call


def _check_partition_report(cells, dim: int) -> dict:
    return {"dim": dim, "cells": [list(c) for c in sorted(cells)],
            "bounding_side": _side(cells), "cell_count": len(cells),
            "orbit_count": _orbit_count(cells),
            "strongly_stable": _is_strongly_stable(cells),
            "totally_symmetric": _is_totally_symmetric(cells)}


def cold_start_op(root: Path, dim: int) -> Op:
    """`check-partition` on a one-cell input, in a fresh interpreter."""
    cell = (0,) * dim
    payload = json.dumps({"dim": dim, "cells": [list(cell)]})
    expected = [_check_partition_report([cell], dim)]
    return Op("cold_start", f"subprocess check-partition {payload}",
              _subprocess_call(root, ["check-partition"], payload),
              _cli_check(0, expected), subprocess=True)


def _object_op(sub: str, p) -> tuple[list[str], str, Callable]:
    """argv, stdin and check for one object subcommand on partition p."""
    dim, cells = p.dim, _cells(p)
    part_json = p.to_json_dict()
    ideal_json = {"dim": dim, "gens": _outer_corners(cells, dim)}
    ideal = bb.MonomialIdeal(dim, ideal_json["gens"])
    image = bb.ss_to_ts_partition(p)
    if sub == "check-partition":
        return [sub], json.dumps(part_json), _cli_check(0, [_check_partition_report(cells, dim)])
    if sub == "check-ideal":
        pure = [None] * dim
        for g in ideal_json["gens"]:
            support = [j for j, e in enumerate(g) if e]
            if len(support) == 1:
                pure[support[0]] = g[support[0]]
        report = dict(ideal_json, artinian=True, pure_power_degrees=pure,
                      strongly_stable=True, symmetric=_is_totally_symmetric(cells))
        return [sub], json.dumps(ideal_json), _cli_check(0, [report])
    if sub == "ideal2partition":
        return [sub], json.dumps(ideal_json), _cli_check(0, [part_json])
    if sub == "partition2ideal":
        return [sub], json.dumps(part_json), _cli_check(0, [ideal_json])
    if sub == "bgens":
        # The prefix-sum algorithm checks the direct generator test.
        bgens = [list(m) for m in bb.bgens_via_psi(ideal)]
        return [sub], json.dumps(ideal_json), _cli_check(0, [{"bgens": bgens}])
    if sub == "closure":
        bgens = [list(m) for m in bb.bgens_via_psi(ideal)]
        return [sub], json.dumps({"gens": bgens}), _cli_check(0, [ideal_json])
    if sub == "ss2ts":
        return [sub], json.dumps(part_json), _cli_check(0, [image.to_json_dict()])
    if sub == "ts2ss":
        return [sub], json.dumps(image.to_json_dict()), _cli_check(0, [part_json])
    if sub == "lambda":
        fset = bb.lambda_map(ideal)
        return [sub], json.dumps(ideal_json), _cli_check(0, [fset.to_json_dict()])
    if sub == "omega":
        fset = bb.lambda_map(ideal)
        image_ideal = {"dim": dim, "gens": _outer_corners(_cells(image), dim)}
        return [sub], json.dumps(fset.to_json_dict()), _cli_check(0, [image_ideal])
    style = "ferrers" if dim == 2 else "matrix"
    return ([sub, "--style", style], json.dumps(part_json),
            _cli_check(0, expected_text=_render(cells, dim) + "\n"))


OBJECT_SUBCOMMANDS = ("check-partition", "check-ideal", "ideal2partition", "partition2ideal",
                      "bgens", "closure", "ss2ts", "ts2ss", "lambda", "omega", "render")
BOX_SUBCOMMANDS = ("count", "count-ss", "count-list", "gf", "gf-formula", "hawkes")


def _box_op(sub: str, n: int, predicate: str, orbit_gfs, listings):
    counts = list(A005157[:n + 1])
    box = ["--d", "3", "--n", str(n)]
    if sub == "count":
        return ["count", *box], _cli_check(0, [{"d": 3, "n": n, "B": counts, "T": counts}])
    if sub == "count-ss":
        return (["count", *box, "--predicate", "ss"],
                _cli_check(0, [{"d": 3, "n": n, "B": counts}]))
    if sub == "count-list":
        return (["count", *box, "--list", "--predicate", predicate],
                _cli_check(0, listings[predicate, n]))
    if sub == "gf":
        # The orbit generating function equals the boxed q-product (q-TSPP).
        coeffs = list(bb.qtspp(n).coeffs)
        return ["gf", *box], _cli_check(0, [{"d": 3, "n": n, "kind": "orbit",
                                             "coefficients": coeffs}])
    if sub == "gf-formula":
        return (["gf", *box, "--formula"],
                _cli_check(0, [{"d": 3, "n": n, "kind": "product",
                                "coefficients": orbit_gfs[n]}]))
    return (["hawkes", *box],
            _cli_check(0, [{"d": 3, "n": n, "left": counts[n], "right": counts[n],
                            "equal": True}]))


def setup_cli(seed: int, root: Path) -> list[Op]:
    """In-process `cli.run(argv)` calls (object subcommands, box
    subcommands, malformed input) and real subprocesses for cold start."""
    rng = random.Random(seed)
    small = [p for pools in dense_pools().values() for p in pools
             if p.dim in (2, 3) and len(p) <= 12]
    orbit_gfs = {n: list(bb.orbit_gf_ts(3, n).coeffs) for n in range(2, 6)}
    listings = {}
    for predicate, name in (("ss", "strongly_stable"), ("ts", "totally_symmetric")):
        for n in range(2, 6):
            listings[predicate, n] = [p.to_json_dict()
                                      for p in bb.enumerate_partitions(3, n, name)]
            if len(listings[predicate, n]) != A005157[n]:
                raise ArithmeticError(f"setup listing of {name} at n={n} has the wrong size")

    calls = []   # (kind, argv, stdin, check)
    for i in range(CLI_OBJECT_OPS):
        sub = OBJECT_SUBCOMMANDS[i % len(OBJECT_SUBCOMMANDS)]
        argv, stdin, check = _object_op(sub, rng.choice(small))
        calls.append(("object", argv, stdin, check))
    # The sizes are fixed, not drawn, so that every seed does the same work.
    for i in range(CLI_BOX_OPS):
        sub = BOX_SUBCOMMANDS[i % len(BOX_SUBCOMMANDS)]
        rounds = i // len(BOX_SUBCOMMANDS)
        argv, check = _box_op(sub, 2 + rounds % 4, ("ss", "ts")[rounds % 2],
                              orbit_gfs, listings)
        calls.append(("box", argv, "", check))
    for argv, stdin in BOOLEAN_INPUTS + DEEP_INPUTS:
        calls.append(("malformed", argv, stdin, _cli_check(1)))
    for argv, stdin, code in MALFORMED_INPUTS:
        calls.append(("malformed", argv, stdin, _cli_check(code)))
    rng.shuffle(calls)

    ops = [Op(kind, " ".join(argv) + " <<< " + stdin[:200], _cli_call(argv, stdin), check)
           for kind, argv, stdin, check in calls]
    for _ in range(CLI_SUBPROCESS_OPS):
        ops.append(cold_start_op(root, rng.randint(1, 4)))
    return ops
