"""The host's speed, read by a fixed probe, and a clock that leaves the probe out.

The host this benchmark was tuned on switched between a fast speed and one
up to twice as slow, for seconds to minutes at a time.  A probe that runs a
fixed pure-Python task reads the speed.  Probes run between operations
and, every ``SAMPLE_INTERVAL`` seconds, inside an operation, from a
``SIGALRM`` handler that Python runs in the main thread between two
bytecodes.  :func:`clock` is ``time.perf_counter`` minus the time spent in
probes, so an operation's time and the tracer's spans leave them out.
A child process is measured against a bare interpreter start instead,
which tracks its speed far better than the parent's probes do.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

REFERENCE_SECONDS = 0.00075  # the probe's time at the tuning host's fast speed
SAMPLE_INTERVAL = 0.02       # seconds between probes inside an operation
BARE_START_SECONDS = 0.04    # `python -c pass` at the tuning host's fast speed
WINDOW = 0.2                 # the host's speed is taken as steady over this many seconds

_spent = 0.0          # seconds spent in probes inside operations, so far
_probes: list[tuple[float, float]] | None = None   # where the handler records


_BIG = [3 ** (1000 + i) for i in range(8)]   # about 1600 bits each
_DOCUMENT = {"dim": 3, "cells": [[i % 3, i % 5, i % 7] for i in range(12)], "name": "probe"}


def _triple(x: int) -> int:
    return 3 * x + 1


def reference_task() -> int:
    """Fixed pure-Python work in four parts of about equal time, since no
    single kind of work slows with the host the way all operations do:
    tuples and set lookups, big-integer products, dictionary stores with
    function calls, and JSON and string handling.  (A walk over a long
    list, tried as another part, tracked the operations worse.)"""
    seen, total = set(), 0
    for i in range(700):
        cell = (i % 7, i % 11, i % 13)
        if cell not in seen:
            seen.add(cell)
        total += sum(cell) * i
    product = 0
    for i in range(60):
        product += _BIG[i % 8] * _BIG[(i + 3) % 8]
    total += sum(product % (i + 7) for i in range(50))
    table = {}
    for i in range(1500):
        table[i & 255] = _triple(i)
    total += sum(v for v in table.values() if v & 1)
    for _ in range(12):
        text = json.dumps(_DOCUMENT)
        back = json.loads(text)
        total += len(" ".join(f"{k}={v}" for k, v in back.items()).split("="))
    return total


def probe() -> float:
    """Seconds for the reference task, the collector paused so that the
    workload's garbage is not collected on the probe's clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def record(probes: list[tuple[float, float]]) -> None:
    """Run a probe and append (when it ended, its seconds) to ``probes``."""
    seconds = probe()
    probes.append((time.perf_counter(), seconds))


def interpreter_start(root) -> float:
    """Seconds for a fresh interpreter that does nothing, started the way
    the benchmark starts the command line: the yardstick for a child
    process, whose speed tracks the parent's probes only loosely."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], input="", capture_output=True,
                   text=True, cwd=root, env=env, check=True, timeout=60)
    return time.perf_counter() - start


def clock() -> float:
    """``time.perf_counter()`` less the time spent in probes inside operations."""
    return time.perf_counter() - _spent


def _on_alarm(signum, frame) -> None:
    global _spent, _probes
    probes, _probes = _probes, None   # no nested probe if the next alarm comes early
    if probes is None:
        return
    start = time.perf_counter()
    try:
        record(probes)
    finally:
        _spent += time.perf_counter() - start
        _probes = probes


@contextmanager
def sampling(probes: list[tuple[float, float]], enabled: bool = True):
    """Record a probe into ``probes`` every ``SAMPLE_INTERVAL`` seconds
    while the block runs.  Off for a block that waits on a child process:
    the child runs on while the parent probes."""
    global _probes
    if not enabled:
        yield
        return
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    _probes = probes
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        _probes = None
        signal.signal(signal.SIGALRM, previous)
