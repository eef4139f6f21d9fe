import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vnchain.scenarios import (
    RunOptions,
    ScenarioError,
    builtin_document,
    builtin_names,
    emit_document,
    load_builtin,
    parse_scenario,
    run,
    scenario_from_document,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "vnchain", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestParsing:
    def test_builtin_stern_gerlach_shape(self):
        scenario = load_builtin("stern-gerlach")
        assert len(scenario.stages) == 2
        assert scenario.layout.dims == (2, 2, 2)
        assert scenario.stages[1].measured is None  # reads the previous pointer

    def test_empty_stages_rejected(self):
        doc = builtin_document("stern-gerlach")
        doc["stages"] = []
        with pytest.raises(ScenarioError) as err:
            scenario_from_document(doc)
        assert err.value.code == "empty-stages"

    def test_unknown_label_rejected(self):
        doc = builtin_document("stern-gerlach")
        doc["stages"][0]["instrument"] = "D"
        with pytest.raises(ScenarioError) as err:
            scenario_from_document(doc)
        assert err.value.code == "unknown-label"
        assert "stages[0]" in err.value.location

    def test_malformed_json_has_line_info(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("{\n  'bad': }")
        assert err.value.code == "malformed-json"
        assert "line" in err.value.location

    def test_malformed_state_spec(self):
        doc = builtin_document("stern-gerlach")
        doc["initial"]["state"] = "sideways"
        with pytest.raises(ScenarioError) as err:
            scenario_from_document(doc)
        assert err.value.code == "malformed-state"

    def test_dimension_mismatch_in_state(self):
        doc = builtin_document("stern-gerlach")
        doc["initial"]["state"] = [[1.0, 0.0]]
        with pytest.raises(ScenarioError) as err:
            scenario_from_document(doc)
        assert err.value.code == "dimension-mismatch"

    def test_chain_order_enforced(self):
        doc = builtin_document("stern-gerlach")
        doc["stages"][1]["object"] = "spin"
        with pytest.raises(ScenarioError) as err:
            scenario_from_document(doc)
        assert err.value.code == "chain-order"

    def test_unknown_analysis(self):
        doc = builtin_document("stern-gerlach")
        doc["analyses"] = ["frobnicate"]
        with pytest.raises(ScenarioError) as err:
            scenario_from_document(doc)
        assert err.value.code == "unknown-analysis"

    def test_duplicate_subsystem(self):
        doc = builtin_document("stern-gerlach")
        doc["subsystems"][1][0] = "spin"
        with pytest.raises(ScenarioError) as err:
            scenario_from_document(doc)
        assert err.value.code == "duplicate-label"

    def test_bare_initial_state_spec(self):
        doc = builtin_document("stern-gerlach")
        doc["initial"] = "minus"
        scenario = scenario_from_document(doc)
        np.testing.assert_allclose(
            scenario.initial.amplitudes, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12
        )

    def test_pauli_and_matrix_observable_specs(self):
        doc = builtin_document("stern-gerlach")
        doc["stages"][0]["measured"] = {"pauli": "z"}
        scenario = scenario_from_document(doc)
        assert scenario.stages[0].measured.eigenvalues == (-1.0, 1.0)
        doc["stages"][0]["measured"] = {
            "matrix": [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]
        }
        scenario = scenario_from_document(doc)  # Pauli-Y as explicit entries
        assert scenario.stages[0].measured.eigenvalues == (-1.0, 1.0)
        doc["stages"][0]["measured"] = {"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        with pytest.raises(ScenarioError) as err:
            scenario_from_document(doc)
        assert err.value.code == "bad-observable"

    @pytest.mark.parametrize("trials", [0, -3, 2.5, "5", True])
    def test_condition_trials_must_be_positive_int(self, trials):
        doc = builtin_document("wigner-friend")
        doc["analyses"] = ["improper_mixture", {"kind": "condition_reports", "trials": trials}]
        with pytest.raises(ScenarioError) as err:
            scenario_from_document(doc)
        assert err.value.code == "bad-value"
        assert err.value.location == "$.analyses[1].trials"

    @pytest.mark.parametrize(
        "builtin,analysis,location",
        [
            ("wigner-friend", {"kind": "improper_mixture", "stage": True}, "stage"),
            ("world-split", {"kind": "world_branches", "pointer_stage": True}, "pointer_stage"),
            ("ensemble-update", {"kind": "ensemble_update", "source_stage": False}, "source_stage"),
            (
                "ensemble-update",
                {"kind": "ensemble_update", "projector": {"branch": 0, "stage": False}},
                "projector.stage",
            ),
        ],
    )
    def test_boolean_stage_index_rejected(self, builtin, analysis, location):
        doc = builtin_document(builtin)
        doc["analyses"] = [analysis]
        with pytest.raises(ScenarioError) as err:
            scenario_from_document(doc)
        assert err.value.code == "bad-value"
        assert err.value.location == f"$.analyses[0].{location}"

    @pytest.mark.parametrize("samples", [-5, 1.5, None])
    def test_ensemble_samples_must_be_non_negative_int(self, samples):
        doc = builtin_document("ensemble-update")
        doc["analyses"][0]["samples"] = samples
        with pytest.raises(ScenarioError) as err:
            scenario_from_document(doc)
        assert err.value.code == "bad-value"
        assert err.value.location == "$.analyses[0].samples"

    def test_zero_samples_means_no_sampling(self):
        doc = builtin_document("ensemble-update")
        doc["analyses"][0]["samples"] = 0
        report = run(scenario_from_document(doc))
        section = report.sections[1]
        assert section.columns == ("member", "prior", "posterior")
        assert [c.name for c in section.checks] == ["posterior_weight_sum"]


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["stern-gerlach", "wigner-friend", "world-split", "ensemble-update"])
    def test_parse_emit_parse(self, name):
        first = load_builtin(name)
        second = scenario_from_document(emit_document(first))
        assert second.layout == first.layout
        assert len(second.stages) == len(first.stages)
        np.testing.assert_allclose(
            second.initial.amplitudes, first.initial.amplitudes, atol=1e-12
        )
        for a, b in zip(first.stages, second.stages):
            assert (a.measured is None) == (b.measured is None)
            if a.measured is not None:
                np.testing.assert_allclose(
                    a.measured.matrix(), b.measured.matrix(), atol=1e-12
                )
            for va, vb in zip(a.pointer_states.vectors, b.pointer_states.vectors):
                np.testing.assert_allclose(va, vb, atol=1e-12)
            np.testing.assert_allclose(a.ready.amplitudes, b.ready.amplitudes, atol=1e-12)
            assert a.kind == b.kind
        assert [a.kind for a in first.analyses] == [a.kind for a in second.analyses]

    def test_run_report_identical_after_round_trip(self):
        first = load_builtin("stern-gerlach")
        second = scenario_from_document(emit_document(first))
        assert run(first).render() == run(second).render()


class TestRunReports:
    def test_stern_gerlach_born_weights(self):
        doc = builtin_document("stern-gerlach")
        doc["initial"]["state"] = [[np.sqrt(0.3), 0.0], [np.sqrt(0.7), 0.0]]
        report = run(scenario_from_document(doc))
        assert report.passed
        text = report.render()
        assert "0.3000000000" in text
        assert "0.7000000000" in text

    def test_stern_gerlach_sharp_spin_up(self):
        doc = builtin_document("stern-gerlach")
        doc["initial"]["state"] = "basis:0"
        report = run(scenario_from_document(doc))
        section = report.sections[1]
        weight_rows = [r for r in section.rows if r[0] not in ("dropped",)]
        assert len(weight_rows) == 1
        assert weight_rows[0][0] == "0"
        assert float(weight_rows[0][2]) == pytest.approx(1.0, abs=1e-9)

    def test_same_seed_same_bytes(self):
        scenario = load_builtin("ensemble-update")
        a = run(scenario, RunOptions(seed=5)).render()
        b = run(scenario, RunOptions(seed=5)).render()
        assert a == b

    def test_weight_tables_sum_to_one(self):
        for name in builtin_names():
            report = run(load_builtin(name))
            for section in report.sections:
                for check in section.checks:
                    if check.name == "weight_table_sum":
                        assert check.value <= 1e-9

    def test_json_format_is_machine_readable(self):
        report = run(load_builtin("stern-gerlach"))
        tree = json.loads(report.render("json"))
        assert tree["scenario"] == "stern-gerlach"
        assert tree["passed"] is True

    def test_dump_states_section(self):
        report = run(load_builtin("stern-gerlach"), RunOptions(dump_states=True))
        assert report.sections[-1].title.startswith("stage states")

    def test_exact_stage_still_calibrated(self):
        doc = builtin_document("wigner-friend")
        doc["stages"][1]["kind"] = "exact"
        doc["stages"][1]["dressings"] = "random"
        doc["stages"][1]["dressing_seed"] = 3
        report = run(scenario_from_document(doc))
        condition_checks = [
            c for s in report.sections for c in s.checks if "calibration" in c.name
        ]
        assert condition_checks and all(c.passed for c in condition_checks)

    def test_explicit_identity_dressings_match_ideal_run(self):
        ideal_doc = builtin_document("stern-gerlach")
        dressed_doc = builtin_document("stern-gerlach")
        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        dressed_doc["stages"][0]["kind"] = "exact"
        dressed_doc["stages"][0]["dressings"] = [
            {"object": eye, "instrument": eye},
            {"object": eye, "instrument": eye},
        ]
        ideal_report = run(scenario_from_document(ideal_doc))
        dressed_report = run(scenario_from_document(dressed_doc))
        ideal_rows = [s.rows for s in ideal_report.sections if s.title.startswith("branches")]
        dressed_rows = [s.rows for s in dressed_report.sections if s.title.startswith("branches")]
        assert dressed_report.passed
        assert dressed_rows == ideal_rows

    def test_explicit_dressings_round_trip(self):
        doc = builtin_document("stern-gerlach")
        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        doc["stages"][0]["kind"] = "exact"
        doc["stages"][0]["dressings"] = [
            {"object": eye, "instrument": eye},
            {"object": eye, "instrument": eye},
        ]
        first = scenario_from_document(doc)
        second = scenario_from_document(emit_document(first))
        assert second.stages[0].kind == "exact"
        assert second.stages[0].dressings.mode == "explicit"
        for (va, wa), (vb, wb) in zip(
            first.stages[0].dressings.pairs, second.stages[0].dressings.pairs
        ):
            np.testing.assert_allclose(va, vb, atol=1e-12)
            np.testing.assert_allclose(wa, wb, atol=1e-12)


class TestCommandLine:
    def test_run_builtin_exit_zero(self):
        proc = cli("run", "stern-gerlach")
        assert proc.returncode == 0
        assert "result: PASS" in proc.stdout

    def test_run_scenario_file(self, tmp_path):
        doc = builtin_document("wigner-friend")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        proc = cli("run", str(path), "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True

    def test_run_unknown_scenario(self):
        proc = cli("run", "does-not-exist")
        assert proc.returncode == 1
        assert "neither a builtin" in proc.stderr

    def test_run_invalid_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"subsystems": [["A", 2]], "stages": [], "initial": "plus"}')
        proc = cli("run", str(path))
        assert proc.returncode == 1
        assert "empty-stages" in proc.stderr

    def test_seed_flag_reproducible(self):
        a = cli("run", "ensemble-update", "--seed", "9")
        b = cli("run", "ensemble-update", "--seed", "9")
        assert a.stdout == b.stdout

    def test_tsv_format(self):
        proc = cli("run", "stern-gerlach", "--format", "tsv")
        assert proc.returncode == 0
        assert proc.stdout.startswith("scenario\tstern-gerlach")

    def test_scenarios_list(self):
        proc = cli("scenarios", "list")
        assert proc.returncode == 0
        for name in builtin_names():
            assert name in proc.stdout

    def test_emit_round_trips_through_parse(self):
        proc = cli("emit", "world-split")
        assert proc.returncode == 0
        scenario = parse_scenario(proc.stdout)
        assert scenario.name == "world-split"

    def test_emit_unknown_builtin(self):
        proc = cli("emit", "nope")
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "projector,location",
        [
            ("plus", "$.analyses[0].projector"),
            ({"subsystem": "meter", "branch": 0, "stage": 5}, "$.analyses[0].projector.stage"),
            ({"subsystem": "meter", "branch": 7}, "$.analysis.projector.branch"),
            ({"subsystem": "system", "branch": 1}, "$.analysis.projector.subsystem"),
        ],
    )
    def test_bad_ensemble_projector_is_a_scenario_error(self, tmp_path, projector, location):
        doc = builtin_document("ensemble-update")
        doc["analyses"][0]["projector"] = projector
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = cli("run", str(path))
        assert proc.returncode == 1
        assert f"[bad-value] at {location}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_verify_small_passes(self):
        proc = cli("verify", "--trials", "10", "--dims", "3,3")
        assert proc.returncode == 0
        assert "verify: PASS" in proc.stdout

    def test_verify_corrupt_fails(self):
        proc = cli("verify", "--trials", "10", "--dims", "3,3", "--corrupt", "phase")
        assert proc.returncode == 2
        assert "FAIL" in proc.stdout

    def test_verify_zero_trials_warns(self):
        proc = cli("verify", "--trials", "0")
        assert proc.returncode == 0
        assert "warning" in proc.stderr
        assert "0 suites" in proc.stdout

    def test_verify_json_format(self):
        proc = cli("verify", "--trials", "5", "--dims", "3,3", "--format", "json")
        assert proc.returncode == 0
        tree = json.loads(proc.stdout)
        assert tree["passed"] is True
        assert len(tree["suites"]) > 10

    def test_verify_bad_dims_usage_error(self):
        proc = cli("verify", "--dims", "banana")
        assert proc.returncode == 1
        assert "usage error" in proc.stderr

    def test_tol_flag(self):
        strict = cli("run", "stern-gerlach", "--tol", "1e-30")
        assert strict.returncode == 2  # float rounding exceeds an absurd tolerance
        assert cli("run", "stern-gerlach").returncode == 0

    @pytest.mark.parametrize(
        "measured",
        [
            {"diag": [float("nan"), 1]},
            {"diag": [float("inf"), 1]},
            {"diag": ["up", 1]},
            {"diag": [{"re": 1}, 1]},
            {"matrix": [[float("nan"), 0], [0, 1]]},
        ],
    )
    def test_bad_observable_entries_are_a_scenario_error(self, tmp_path, measured):
        doc = builtin_document("stern-gerlach")
        doc["stages"][0]["measured"] = measured
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = cli("run", str(path))
        assert proc.returncode == 1
        assert "[bad-observable] at $.stages[0].measured:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_verify_suite_that_raises_fails_alone(self, monkeypatch, capsys):
        from vnchain import chains
        from vnchain.cli import main

        condition_vector = chains._condition_vector

        def inflated(*args):
            w, m = condition_vector(*args)
            return w, None if m is None else 1.1 * m

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        monkeypatch.setattr(chains, "_condition_vector", inflated)
        assert main(["verify", "--trials", "10", "--format", "json"]) == 2
        out, err = capsys.readouterr()
        tree = json.loads(out, parse_constant=reject)
        assert len(tree["suites"]) == 19
        raised = [s for s in tree["suites"] if s["note"].startswith("raised ")]
        assert raised
        for s in raised:
            assert (s["cases"], s["max_residual"], s["passed"]) == (0, None, False)
        assert main(["verify", "--trials", "10"]) == 2
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 20
        assert "FAIL  raised ValueError: trace" in out
        assert "Traceback" not in out + err
