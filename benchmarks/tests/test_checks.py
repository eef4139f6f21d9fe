"""The benchmark's own tests: each output check rejects a wrong result.

Run with ``python -m pytest benchmarks/tests``; the repository's own test
run (``testpaths = tests``) does not collect them.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from vnchain.cli import main as vnchain_main  # noqa: E402
from worker import call_cli  # noqa: E402
from workloads import (  # noqa: E402
    CHECKS,
    VERIFY_SUITES,
    CheckFailed,
    expected_verify_cases,
    make_cases,
)

SMALL_GRID = {"max_object_dim": 3, "max_instrument_dim": 3, "trials": 10}
SMALL_VERIFY = ["verify", "--dims", "3,3", "--trials", "10", "--format", "json"]


def run_case(case: dict, tmp_path: Path) -> tuple[int, str]:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(case["doc"]))
    return call_cli(vnchain_main, [str(path) if a == "{scenario}" else a for a in case["argv"]])


def shrink_pure(case: dict, qubits: int = 4) -> dict:
    """The same chain_pure input on fewer qubits, to keep the tests fast."""
    case = copy.deepcopy(case)
    case["doc"]["subsystems"] = case["doc"]["subsystems"][:qubits]
    case["doc"]["stages"] = case["doc"]["stages"][: qubits - 1]
    case["expect"]["qubits"] = qubits
    return case


def section(tree: dict, prefix: str) -> dict:
    return next(s for s in tree["sections"] if s["title"].startswith(prefix))


@pytest.fixture(scope="module")
def pure_output(tmp_path_factory):
    case = shrink_pure(make_cases("chain_pure", 3)[0])
    rc, out = run_case(case, tmp_path_factory.mktemp("pure"))
    return case, rc, out


@pytest.fixture(scope="module")
def mixed_output(tmp_path_factory):
    case = make_cases("chain_mixed", 3)[0]
    rc, out = run_case(case, tmp_path_factory.mktemp("mixed"))
    return case, rc, out


@pytest.fixture(scope="module")
def verify_output():
    return call_cli(vnchain_main, SMALL_VERIFY)


@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_inputs_repeat_per_seed(workload):
    assert make_cases(workload, 7) == make_cases(workload, 7)
    assert make_cases(workload, 7) != make_cases(workload, 8)


def test_pure_check_accepts_program_output(pure_output):
    case, rc, out = pure_output
    CHECKS["chain_pure"](rc, out, case["expect"])


def test_pure_check_rejects_swapped_branch_weights(pure_output):
    case, rc, out = pure_output
    tree = json.loads(out)
    rows = section(tree, "branches")["rows"]
    rows[0][2], rows[1][2] = rows[1][2], rows[0][2]
    with pytest.raises(CheckFailed, match="weight of branch"):
        CHECKS["chain_pure"](rc, json.dumps(tree), case["expect"])


def test_pure_check_rejects_wrong_dominant_ket(pure_output):
    case, rc, out = pure_output
    tree = json.loads(out)
    row = section(tree, "branches")["rows"][1]
    row[3] = row[3].replace("1,1>", "1,0>")
    with pytest.raises(CheckFailed, match="component"):
        CHECKS["chain_pure"](rc, json.dumps(tree), case["expect"])


def test_mixed_check_accepts_program_output(mixed_output):
    case, rc, out = mixed_output
    CHECKS["chain_mixed"](rc, out, case["expect"])


def test_mixed_check_rejects_swapped_improper_weights(mixed_output):
    case, rc, out = mixed_output
    tree = json.loads(out)
    rows = [r for r in section(tree, "improper mixture")["rows"] if r[0] != "dropped"]
    rows[0][1], rows[1][1] = rows[1][1], rows[0][1]
    with pytest.raises(CheckFailed, match="weight of branch"):
        CHECKS["chain_mixed"](rc, json.dumps(tree), case["expect"])


def test_mixed_check_rejects_posterior_without_event_probability(mixed_output):
    case, rc, out = mixed_output
    tree = json.loads(out)
    ensemble = section(tree, "ensemble update")
    prior, posterior = ensemble["columns"].index("prior"), ensemble["columns"].index("posterior")
    weights = [float(r[prior]) for r in ensemble["rows"]]
    for row in ensemble["rows"]:
        # w_k / sum_j w_j: the re-weighting with the event probabilities left out
        row[posterior] = f"{float(row[prior]) / sum(weights):.10f}"
    with pytest.raises(CheckFailed, match="posterior"):
        CHECKS["chain_mixed"](rc, json.dumps(tree), case["expect"])


def test_mixed_check_rejects_world_branches_not_orthogonal(mixed_output):
    case, rc, out = mixed_output
    tree = json.loads(out)
    notes = section(tree, "world branches")["notes"]
    notes[0] = notes[0].rsplit(":", 1)[0] + ": 0.999000"
    with pytest.raises(CheckFailed, match="trace distance"):
        CHECKS["chain_mixed"](rc, json.dumps(tree), case["expect"])


def test_run_check_rejects_failed_report_check(mixed_output):
    case, rc, out = mixed_output
    tree = json.loads(out)
    check = section(tree, "ensemble update")["checks"][-1]
    check["value"], check["passed"] = 1.5, False
    with pytest.raises(CheckFailed):
        CHECKS["chain_mixed"](rc, json.dumps(tree), case["expect"])


def test_verify_check_accepts_program_output(verify_output):
    rc, out = verify_output
    CHECKS["verify_grid"](rc, out, SMALL_GRID)


def test_verify_check_rejects_one_failed_suite(verify_output):
    rc, out = verify_output
    tree = json.loads(out)
    suite = tree["suites"][5]
    suite["max_residual"], suite["passed"] = 10 * suite["tolerance"], False
    with pytest.raises(CheckFailed, match=suite["name"]):
        CHECKS["verify_grid"](rc, json.dumps(tree), SMALL_GRID)


def test_verify_check_rejects_missing_suite(verify_output):
    rc, out = verify_output
    tree = json.loads(out)
    del tree["suites"][-1]
    with pytest.raises(CheckFailed, match="19 expected"):
        CHECKS["verify_grid"](rc, json.dumps(tree), SMALL_GRID)


def test_verify_check_rejects_wrong_case_count(verify_output):
    rc, out = verify_output
    tree = json.loads(out)
    tree["suites"][6]["cases"] -= 1
    with pytest.raises(CheckFailed, match="cases"):
        CHECKS["verify_grid"](rc, json.dumps(tree), SMALL_GRID)


def test_verify_check_rejects_corrupt_phase():
    rc, out = call_cli(vnchain_main, [*SMALL_VERIFY, "--corrupt", "phase"])
    assert rc == 2
    with pytest.raises(CheckFailed):
        CHECKS["verify_grid"](rc, out, SMALL_GRID)
    tree = json.loads(out)
    with pytest.raises(CheckFailed, match="failed"):
        CHECKS["verify_grid"](0, json.dumps(tree), SMALL_GRID)


def test_expected_case_counts_at_default_grid():
    counts = expected_verify_cases(4, 6, 100)
    assert counts["premeasurement.equivalence_triangle"] == 90
    assert set(counts) < set(VERIFY_SUITES)


def test_traced_worker_reports_every_layer_metric():
    from run import PER_LAYER_UNITS

    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "worker.py"), "--workload", "chain_mixed",
            "--seed", "1", "--seconds", "0.3", "--trace", "1", "--spawned-at", "0",
        ],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["layers"]) == set(PER_LAYER_UNITS)
    assert result["layers"]["density_operator_builds"] > 0
    assert 0 < result["layers"]["branch_yield"] < 1  # idle pointer branches carry no weight


def test_metric_names_and_units_match_benchmark_json():
    from run import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
