import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


@pytest.fixture
def acceptance():
    """Recorder for acceptance-criterion outcomes, echoed in the summary."""

    def record(number: int, description: str, passed: bool, detail: str = ""):
        _ACCEPTANCE_RESULTS.append((number, description, passed, detail))

    return record


@pytest.fixture(autouse=True)
def _no_child_process_left():
    """Fail a test that leaves a ``multiprocessing`` child alive.

    Reads ``multiprocessing`` only when something already imported it, so the
    fixture itself imports nothing.
    """
    yield
    mp = sys.modules.get("multiprocessing")
    left = mp.active_children() if mp is not None else []
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(f"test left child processes alive: {left}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, detail in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number}: {status}  {description}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
