"""``run_suites`` on forked helpers gives the rows of a serial run.

``suites._usable_cpus`` is patched to 1 for the serial run and to 3 for the
parallel one (the caller and two helpers), so both paths run on any host.
"""

import dataclasses
import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from test_mutations import FAULT_TABLE, _inject

from vnchain import suites
from vnchain.suites import run_suites

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _bits(rows):
    return [
        (r.name, r.cases, float(r.max_residual).hex(), float(r.tolerance).hex(), r.note)
        for r in rows
    ]


# sha256 of ``repr(_bits(rows))`` of the serial ``run_suites(trials=10,
# seed=0)``.  It pins every row to the bit: a change that moves a residual,
# a case count or a note must say which rows it moves and why.
SERIAL_ROWS_SHA256 = "499197fe878d2e76ffb40b558284cb454dcf77ddca144fd211466ebec9723aa7"


def _run(monkeypatch, cpus, **kwargs):
    monkeypatch.setattr(suites, "_usable_cpus", lambda: cpus)
    rows = run_suites(**kwargs)
    assert multiprocessing.active_children() == []
    return rows


def _wrap_checks(monkeypatch, wrap):
    """Replace every suite's check by ``wrap(check)``."""
    wrapped = tuple(dataclasses.replace(s, check=wrap(s.check)) for s in suites.SUITES)
    monkeypatch.setattr(suites, "SUITES", wrapped)


def _log_pids(monkeypatch, log: Path, caller_delay_s: float = 0.0):
    """Record which process runs each suite; the caller first waits
    ``caller_delay_s`` so that the helpers claim most of the suites."""
    caller = os.getpid()

    def wrap(check):
        def logged(ctx, rng):
            if os.getpid() == caller:
                time.sleep(caller_delay_s)
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return check(ctx, rng)

        return logged

    _wrap_checks(monkeypatch, wrap)
    return caller


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("corrupt", [None, "phase"])
def test_helpers_give_the_serial_rows(monkeypatch, seed, corrupt):
    serial = _run(monkeypatch, 1, trials=10, seed=seed, corrupt=corrupt)
    parallel = _run(monkeypatch, 3, trials=10, seed=seed, corrupt=corrupt)
    assert len(parallel) == len(suites.SUITES)
    assert _bits(parallel) == _bits(serial)


def test_the_serial_rows_are_pinned(monkeypatch):
    rows = _run(monkeypatch, 1, trials=10, seed=0)
    assert hashlib.sha256(repr(_bits(rows)).encode()).hexdigest() == SERIAL_ROWS_SHA256


def test_a_monkeypatched_fault_reaches_the_helpers(monkeypatch, tmp_path):
    fault = "partial_trace_matrix_transposed"
    _inject(monkeypatch, fault)
    serial = _run(monkeypatch, 1, trials=10, seed=0)
    log = tmp_path / "pids"
    caller = _log_pids(monkeypatch, log, caller_delay_s=0.05)
    parallel = _run(monkeypatch, 3, trials=10, seed=0)
    assert {r.name for r in parallel if not r.passed} == FAULT_TABLE[fault]
    assert _bits(parallel) == _bits(serial)
    pids = [int(p) for p in log.read_text().split()]
    assert len(pids) == len(suites.SUITES)
    assert set(pids) - {caller}  # some suites ran in a helper


@pytest.mark.parametrize("dying", ["chains.born_weights", "every suite"])
def test_a_dead_helper_costs_no_row(monkeypatch, dying):
    serial = _run(monkeypatch, 1, trials=10, seed=0)
    caller = os.getpid()

    def wrap(check):
        def exit_in_helper(ctx, rng):
            if os.getpid() != caller:
                os._exit(3)
            return check(ctx, rng)

        return exit_in_helper

    wrapped = tuple(
        dataclasses.replace(s, check=wrap(s.check)) if dying in (s.name, "every suite") else s
        for s in suites.SUITES
    )
    monkeypatch.setattr(suites, "SUITES", wrapped)
    parallel = _run(monkeypatch, 3, trials=10, seed=0)
    assert _bits(parallel) == _bits(serial)


def test_a_helper_that_cannot_be_forked_leaves_its_share_to_the_caller(monkeypatch):
    serial = _run(monkeypatch, 1, trials=10, seed=0)

    def no_process(self):
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", no_process)
    parallel = _run(monkeypatch, 3, trials=10, seed=0)
    assert _bits(parallel) == _bits(serial)


def test_an_interrupted_caller_stops_its_helpers(monkeypatch):
    caller = os.getpid()

    def wrap(check):
        def interrupted(ctx, rng):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)  # a helper would hold the run up for a minute

        return interrupted

    _wrap_checks(monkeypatch, wrap)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_suites(trials=2)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def test_another_thread_keeps_the_run_in_the_caller(monkeypatch, tmp_path):
    log = tmp_path / "pids"
    caller = _log_pids(monkeypatch, log)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        _run(monkeypatch, 3, trials=2)
    finally:
        release.set()
        thread.join()
    assert {int(p) for p in log.read_text().split()} == {caller}


def test_a_run_command_does_not_import_multiprocessing():
    code = (
        "import contextlib, io, sys\n"
        "from vnchain.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['run', 'stern-gerlach']) == 0\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "False\n"
