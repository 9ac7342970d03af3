"""Tests of the benchmark itself: seeded inputs, oracles, tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import borelbox as bb  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _labels(name: str, seed: int) -> list[str]:
    return [op.label for op in getattr(wl, "setup_" + name)(seed, ROOT)]


@pytest.mark.parametrize("name", ["bijection", "cli"])
def test_one_seed_gives_the_same_inputs_and_two_seeds_differ(name):
    assert _labels(name, 7) == _labels(name, 7)
    assert _labels(name, 7) != _labels(name, 8)


@pytest.mark.parametrize("name", ["enumerate", "qseries"])
def test_fixed_workloads_ignore_the_seed(name):
    assert _labels(name, 7) == _labels(name, 8)


def test_mix_and_sparse_sizes_do_not_depend_on_the_seed():
    def shape(seed):
        ops = wl.setup_bijection(seed, ROOT)
        sides = Counter(wl._side(json.loads(op.label)["cells"]) for op in ops
                        if op.kind == "sparse")
        return Counter(op.kind for op in ops), sides
    assert shape(1) == shape(2)
    kinds, sides = shape(1)
    assert kinds == {"dense": sum(wl.DENSE_PICKS.values()),
                     "sparse": len(wl.SPARSE_LENGTHS) * len(wl.SPARSE_WIDTHS)}
    assert kinds["sparse"] * 4 == kinds["dense"] + kinds["sparse"]
    assert set(sides) == set(wl.SPARSE_LENGTHS)


@pytest.mark.parametrize("a,length", [(1, 12), (2, 14), (3, 17)])
def test_sparse_partition_is_the_complement_of_the_borel_closure(a, length):
    ideal = bb.borel_closure([(1, 0, 0), (0, a, 0), (0, 0, length)])
    assert wl.sparse_partition(a, length) == bb.ideal_to_partition(ideal)


def test_integer_product_matches_the_published_counts():
    assert [wl.tspp_count(n) for n in range(11)] == list(wl.A005157)
    assert wl.tspp_count(20) == bb.stembridge_t3(20)


def test_checkers_reject_wrong_answers():
    ops = wl.setup_enumerate(0, ROOT)
    assert ops[0].check(wl.A005157[6] + 1) == wl.WRONG
    p = wl.sparse_partition(2, 12)
    round_trip = wl._round_trip_check(p)
    assert round_trip((bb.ss_to_ts_partition(p), p)) == wl.OK
    assert round_trip((p, p)) == wl.WRONG


def test_cli_failures_are_exactly_the_known_defects():
    ops = [op for op in wl.setup_cli(3, ROOT) if not op.subprocess]
    failed = [op.label for op in ops if op.check(op.call()) != wl.OK]
    defects = {" ".join(argv) + " <<< " + stdin[:200]
               for argv, stdin in wl.BOOLEAN_INPUTS + wl.DEEP_INPUTS}
    assert len(failed) == len(wl.BOOLEAN_INPUTS) + len(wl.DEEP_INPUTS)
    assert set(failed) <= defects


def _answers(ops):
    out = []
    for op in ops:
        try:
            out.append(op.call())
        except Exception as exc:
            out.append(type(exc).__name__)
    return out


def _small_ops():
    return (wl.setup_bijection(5, ROOT)[:40]
            + [op for op in wl.setup_cli(5, ROOT) if not op.subprocess]
            + wl.setup_qseries(5, ROOT)[:7]
            + wl.setup_enumerate(5, ROOT)[3:5])


def test_traced_and_untraced_runs_give_identical_answers_and_counts():
    ops = _small_ops()
    original = bb.correspondence.partition_to_ideal
    plain = _answers(ops)
    tracer = tracing.Tracer()
    tracer.install(tracing.WRAPS)
    try:
        assert bb.bijection.partition_to_ideal is not original
        traced = _answers(ops)
        first = tracing.layer_metrics(tracer)
        tracer.reset()
        _answers(ops)
        second = tracing.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert bb.bijection.partition_to_ideal is original
    assert bb.correspondence.partition_to_ideal is original
    assert traced == plain
    assert tracer.absent == []
    counts = [name for name in first if run.per_layer_unit(name) != "s"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["enumeration.rejected"] == 0
    assert first["enumeration.nodes"] == first["enumeration.yielded"] > 0
    assert first["ideals.contains_calls"] > 0 and first["qpoly.mul_calls"] > 0


def test_probes_inside_a_call_are_left_out_of_its_time():
    def busy():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    timed = run.Timed([busy])
    inside = sum(seconds for _, seconds in timed.inner[0])
    assert len(timed.inner[0]) >= 4
    assert abs(timed.seconds[0] + inside - 0.2) < 0.005


def test_a_child_process_call_is_measured_against_a_bare_start():
    timed = run.Timed([lambda: None], [True])
    assert timed.inner == [[]] and timed.bare[0] > 0
    assert timed.normalized() == [timed.seconds[0] * speed.BARE_START_SECONDS / timed.bare[0]]


def test_missing_names_are_reported_absent():
    tracer = tracing.Tracer()
    extra = (("enumeration", "_no_such_split", tracing._span("x")),
             ("no_such_module", "f", tracing._span("y")),
             ("ideals", "NoSuchClass.method", tracing._span("z")))
    tracer.install(tracing.WRAPS + extra)
    try:
        assert bb.count_ss(2, 3) == 8
    finally:
        tracer.uninstall()
    assert tracer.absent == ["enumeration._no_such_split", "no_such_module.f",
                             "ideals.NoSuchClass.method"]


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    tracer = tracing.Tracer()
    printed = list(tracing.layer_metrics(tracer)) + [
        f"{kind}_s" for kind in run.QUESTION_KINDS] + [
        "failed_ratio", "cli.import_ms", "trace.overhead_ratio", "trace.absent_wraps"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in printed}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
