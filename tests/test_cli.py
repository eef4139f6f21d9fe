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
    load_builtin,
    parse_scenario,
    run,
    scenario_from_document,
)

from test_kernels import _copy_chain
from test_metamorphic import padding_chain

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli(*args, env_extra=None, stdin_text=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "vnchain", *args],
        capture_output=True,
        text=True,
        env=env,
        input=stdin_text,
    )


class TestParsing:
    def test_builtin_stern_gerlach_shape(self):
        scenario = load_builtin("stern-gerlach")
        assert len(scenario.stages) == 2
        assert scenario.layout.dims == (2, 2, 2)
        assert scenario.stages[1].link.measured is scenario.stages[0].link.pointer

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
        assert scenario.stages[0].link.measured.eigenvalues == (-1.0, 1.0)
        doc["stages"][0]["measured"] = {
            "matrix": [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]
        }
        scenario = scenario_from_document(doc)  # Pauli-Y as explicit entries
        assert scenario.stages[0].link.measured.eigenvalues == (-1.0, 1.0)
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


class TestEmittedDocuments:
    """``vnchain emit`` prints the builtin document, and its output parses to
    the scenario the builtin loads."""

    @staticmethod
    def emitted(capsys, name):
        from vnchain.cli import main

        assert main(["emit", name]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return out

    @pytest.mark.parametrize("name", builtin_names())
    def test_emit_output_parses_to_the_builtin(self, capsys, name):
        text = self.emitted(capsys, name)
        assert json.loads(text) == builtin_document(name)
        first = load_builtin(name)
        second = parse_scenario(text)
        assert second.name == first.name == name
        assert second.layout == first.layout
        assert len(second.stages) == len(first.stages)
        np.testing.assert_array_equal(second.initial.amplitudes, first.initial.amplitudes)
        pa = pb = None  # the previous stages' pointers
        for a, b in zip(first.stages, second.stages):
            assert (a.link.measured is pa) == (b.link.measured is pb)
            if a.link.measured is not pa:
                np.testing.assert_array_equal(a.link.measured.matrix(), b.link.measured.matrix())
            for va, vb in zip(a.link.pointer_states.vectors, b.link.pointer_states.vectors):
                np.testing.assert_array_equal(va, vb)
            np.testing.assert_array_equal(
                a.link.ready_state.amplitudes, b.link.ready_state.amplitudes
            )
            assert a.kind == b.kind
            pa, pb = a.link.pointer, b.link.pointer
        assert [a.kind for a in first.analyses] == [a.kind for a in second.analyses]

    @pytest.mark.parametrize("name", builtin_names())
    def test_run_report_identical_for_emit_output(self, capsys, name):
        second = parse_scenario(self.emitted(capsys, name))
        assert run(load_builtin(name)).render() == run(second).render()


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

    def test_explicit_dressings_parse_to_their_pairs(self):
        doc = builtin_document("stern-gerlach")
        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        doc["stages"][0]["kind"] = "exact"
        doc["stages"][0]["dressings"] = [
            {"object": eye, "instrument": eye},
            {"object": eye, "instrument": eye},
        ]
        stage = scenario_from_document(doc).stages[0]
        assert stage.kind == "exact"
        assert stage.dressings.mode == "explicit"
        assert len(stage.dressings.pairs) == 2
        for v, w in stage.dressings.pairs:
            np.testing.assert_array_equal(v, np.eye(2))
            np.testing.assert_array_equal(w, np.eye(2))


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
            ({"subsystem": "meter", "branch": 7}, "$.analyses[0].projector.branch"),
            ({"subsystem": "system", "branch": 1}, "$.analyses[0].projector.subsystem"),
        ],
    )
    def test_bad_ensemble_projector_is_a_scenario_error(self, tmp_path, projector, location):
        doc = builtin_document("ensemble-update")
        doc["analyses"][0]["projector"] = projector
        with pytest.raises(ScenarioError) as err:  # the parser resolves every projector
            parse_scenario(json.dumps(doc))
        assert (err.value.code, err.value.location) == ("bad-value", location)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = cli("run", str(path))
        assert proc.returncode == 1
        assert f"[bad-value] at {location}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "projector,code,location",
        [
            ({"subsystem": "nowhere", "state": "plus"}, "unknown-label", "$.analyses[0].projector"),
            ({"subsystem": "idle", "state": "plus"}, "unknown-label", "$.analyses[0].projector"),
            ({"subsystem": "meter"}, "missing-field", "$.analyses[0].projector"),
            ({"state": "basis:5"}, "dimension-mismatch", "$.analyses[0].projector.state"),
            ({"state": [[0.0, 0.0], [0.0, 0.0]]}, "malformed-state", "$.analyses[0].projector.state"),
            ({"branch": 2}, "bad-value", "$.analyses[0].projector.branch"),
            ({"branch": -1}, "bad-value", "$.analyses[0].projector.branch"),
            (None, "dimension-mismatch", "$.analyses[0].projector"),
        ],
    )
    def test_every_projector_error_is_raised_by_the_parser(self, projector, code, location):
        """A subject outside the final state (``idle`` is declared but no
        stage appends it), a state that does not parse, a branch past the
        pointer and a default ``plus`` on a 1-dimensional instrument."""
        doc = builtin_document("ensemble-update")
        doc["subsystems"].append(["idle", 2])
        if projector is None:
            doc["subsystems"][1][1] = 1
            doc["stages"][0]["measured"] = {"diag": [0, 0]}
            doc["stages"][0]["pointer_states"] = ["basis:0"]
            del doc["analyses"][0]["projector"]
        else:
            doc["analyses"][0]["projector"] = projector
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(doc))
        assert (err.value.code, err.value.location) == (code, location)

    @pytest.mark.parametrize(
        "projector,code,field",
        [
            ({"subsystem": "nowhere", "state": "plus"}, "unknown-label", ""),
            ({"state": "basis:5"}, "dimension-mismatch", ".state"),
            ({"branch": 2}, "bad-value", ".branch"),
            ({"subsystem": "system", "branch": 1}, "bad-value", ".subsystem"),
        ],
    )
    def test_each_projector_error_names_its_own_analysis(self, projector, code, field):
        """With two ``ensemble_update`` analyses, an error in the second one's
        projector is reported at ``$.analyses[1]``, not at the first's."""
        doc = builtin_document("ensemble-update")
        doc["analyses"].append({"kind": "ensemble_update", "projector": projector})
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(doc))
        assert (err.value.code, err.value.location) == (code, f"$.analyses[1].projector{field}")

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

    def test_verify_negative_seed_usage_error(self, monkeypatch, capsys):
        from vnchain import cli as cli_module

        def unreachable(**kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(cli_module, "run_suites", unreachable)
        assert cli_module.main(["verify", "--seed", "-1", "--trials", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "usage error: --seed must be >= 0\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-3"])
    def test_run_tol_must_be_finite_and_non_negative(self, tol):
        proc = cli("run", "stern-gerlach", f"--tol={tol}")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage error: --tol must be a finite number >= 0; got ")

    def test_run_tol_zero_is_accepted(self):
        proc = cli("run", "stern-gerlach", "--tol", "0")
        assert proc.returncode in (0, 2)
        assert proc.stdout and "usage error" not in proc.stderr

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
            {"diag": [True, False]},
            {"diag": ["1", 1]},
            {"diag": [10**400, 1]},
            {"matrix": [[10**400, 0], [0, 1]]},
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


class TestUnreadableScenario:
    def test_run_directory_is_neither_builtin_nor_file(self, tmp_path):
        proc = cli("run", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {str(tmp_path)!r} is neither a builtin scenario nor a file\n"
        assert proc.stdout == ""

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_run_reads_a_scenario_from_a_pipe(self):
        # a pipe is no regular file, but it is readable: only directories are refused
        doc = cli("emit", "stern-gerlach").stdout
        proc = cli("run", "/dev/stdin", stdin_text=doc)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == cli("run", "stern-gerlach").stdout

    def test_read_error_is_an_error_line(self, tmp_path, monkeypatch, capsys):
        from vnchain.cli import main

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(builtin_document("stern-gerlach")))

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", denied)
        assert main(["run", str(path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: cannot read {str(path)!r}: Permission denied\n")


class TestMissingScenario:
    """A path that names no readable file, whatever the reason the system
    gives, is one error line: neither a builtin nor a file."""

    @staticmethod
    def missing_paths(tmp_path):
        regular = tmp_path / "regular.json"
        regular.write_text("{}")
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere.json")
        (tmp_path / "loop").symlink_to(tmp_path / "loop")
        return {
            "missing-file": tmp_path / "missing.json",
            "under-a-regular-file": regular / "scenario.json",
            "dangling-symlink": tmp_path / "dangling",
            "symlink-loop": tmp_path / "loop",
            "directory": tmp_path,
            "null-byte": f"{tmp_path}/bad\0name.json",
        }

    @pytest.mark.parametrize(
        "kind",
        [
            "missing-file",
            "under-a-regular-file",
            "dangling-symlink",
            "symlink-loop",
            "directory",
            "null-byte",
        ],
    )
    def test_missing_path_is_neither_builtin_nor_file(self, tmp_path, capsys, kind):
        from vnchain.cli import main

        path = str(self.missing_paths(tmp_path)[kind])
        assert main(["run", path]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {path!r} is neither a builtin scenario nor a file\n")

    def test_name_too_long_is_a_read_error(self, tmp_path, capsys):
        """A name the system refuses to look up is read, and its error is one
        line; a stat of it raised past ``main`` before."""
        from vnchain.cli import main

        path = str(tmp_path / ("x" * 300))
        assert main(["run", path]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: cannot read {path!r}: File name too long\n")


class TestOutOfMemory:
    """An allocation that does not fit (numpy raises ``_ArrayMemoryError``, a
    ``MemoryError``) is one error line with exit 1, not a traceback."""

    @pytest.mark.parametrize("plain", [False, True])
    def test_memory_error_is_an_error_line(self, monkeypatch, capsys, plain):
        from numpy._core._exceptions import _ArrayMemoryError

        from vnchain import cli as cli_module

        exc = MemoryError() if plain else _ArrayMemoryError((2**20, 2**20), np.dtype(complex))

        def too_big(scenario, options):
            raise exc

        monkeypatch.setattr(cli_module, "run", too_big)
        assert cli_module.main(["run", "stern-gerlach"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: out of memory: {exc}\n")
        assert plain or "Unable to allocate 16.0 TiB" in err


# Every exception that a valid document can raise in ``vnchain run``, with
# its exit code, its one stderr line (the start of it, for ``MemoryError``)
# and the phrase that names it under that code in the ``cli`` docstring (so
# in ``--help``).  The three tests below run, each, a valid document that
# raises one of them.
RUN_EXCEPTIONS = {
    "ZeroSampleError": (
        2,
        "error: no sample triggered the event; cannot form weights\n",
        "a Monte Carlo ``ensemble_update`` that accepts no sample",
    ),
    "UndefinedConditionalError": (
        2,
        "error: event occurrence probability 0.0 is (numerically) zero\n",
        "a conditioning event of zero probability",
    ),
    "MemoryError": (1, "error: out of memory: ", "an allocation that does not fit in memory"),
}


def test_an_event_no_sample_triggers_is_a_numerical_failure(tmp_path, capsys):
    """A valid document whose Monte Carlo ``ensemble_update`` accepts none
    of its samples (an event of probability 2e-4, 5 samples) is one error
    line with the numerical-failure exit code 2, not a traceback."""
    from vnchain.cli import main

    code, line, _ = RUN_EXCEPTIONS["ZeroSampleError"]
    doc = builtin_document("ensemble-update")
    doc["initial"]["state"] = [[0.9999, 0.0], [0.01414, 0.0]]
    doc["analyses"][0].update(projector={"subsystem": "meter", "state": "basis:1"}, samples=5)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for seed in ("0", "5"):
        assert main(["run", str(path), "--seed", seed]) == code
        out, err = capsys.readouterr()
        assert (out, err) == ("", line)


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param(padding_chain(5, event_branch=1), id="padding-branch-1"),
        pytest.param(padding_chain(5, event_branch=2), id="padding-branch-2"),
        pytest.param(
            {**_copy_chain(3, idle=True), "analyses": ["ensemble_update"]}, id="idle-copy-plus"
        ),
    ],
)
def test_an_event_of_zero_probability_is_a_numerical_failure(tmp_path, capsys, doc):
    """A valid document whose ``ensemble_update`` event the final state
    never reaches (a pointer branch no state records, or the default
    ``plus`` on an instrument whose state lies in the span of its idle
    pointer states) is one error line with the numerical-failure exit
    code 2, as an empty Monte Carlo sample is."""
    from vnchain.cli import main

    code, line, _ = RUN_EXCEPTIONS["UndefinedConditionalError"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", line)


_LIMITED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from vnchain import cli, scenarios
scenarios._physical_memory = lambda: 2**40
sys.exit(cli.main(["run", sys.argv[1]]))
"""


def test_a_state_beyond_the_address_space_is_out_of_memory(tmp_path):
    """The two-meter chain q(2) -> B(d) -> C(d) at d = 8192, whose final
    state of 2 d^2 amplitudes takes 2 GiB, run in a child process whose
    address space is limited to 1 GiB, on a machine that the parser is told
    has 1 TiB, so its size guard lets the document through on any host.
    The allocation that fails is one error line with exit 1."""
    from test_growth import two_meter_chain

    code, prefix, _ = RUN_EXCEPTIONS["MemoryError"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(two_meter_chain(2**13, "ideal", "branches")))
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env["OPENBLAS_NUM_THREADS"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", _LIMITED_RUN, str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (done.returncode, done.stdout) == (code, ""), done.stderr[-2000:]
    assert done.stderr.startswith(prefix) and done.stderr.count("\n") == 1, done.stderr[-2000:]


def _exit_code_clauses(doc: str) -> dict[int, str]:
    """The clause of each exit code in the docstring's ``Exit codes:``
    sentence, its whitespace collapsed."""
    import re

    text = " ".join(doc.split())
    sentence = text[text.index("Exit codes: ") + len("Exit codes: ") :].split(").", 1)[0]
    parts = re.split(r"(?:^|, )(\d) ", sentence)[1:]
    return {int(code): clause for code, clause in zip(parts[::2], parts[1::2])}


def test_the_run_exception_table_matches_the_cli_docstring():
    from vnchain import cli as cli_module

    clauses = _exit_code_clauses(cli_module.__doc__)
    assert sorted(clauses) == [0, 1, 2]
    for name, (code, _, phrase) in RUN_EXCEPTIONS.items():
        assert phrase in clauses[code], (name, clauses[code])


class TestParserReuse:
    """``main`` may be called many times in one process: the parser it builds
    once carries nothing from one call into the next."""

    @staticmethod
    def call(capsys, *argv):
        from vnchain.cli import main

        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    SEEDED = ("run", "stern-gerlach", "--seed", "5", "--dump-states", "--format", "json")
    CORRUPT = ("verify", "--trials", "10", "--corrupt", "phase")

    @pytest.mark.parametrize(
        "first,between,codes",
        [
            (("run", "stern-gerlach"), SEEDED, (0, 0)),
            (SEEDED, ("run", "stern-gerlach"), (0, 0)),
            (("run", "wigner-friend", "--format", "tsv"), ("run", "x", "--format", "xml"), (0, 1)),
            (CORRUPT, ("verify", "--trials", "10"), (2, 0)),
            (("verify", "--trials", "10"), CORRUPT, (0, 2)),
        ],
    )
    def test_a_call_in_between_changes_nothing(self, capsys, first, between, codes):
        before = self.call(capsys, *first)
        middle = self.call(capsys, *between)
        assert (before[0], middle[0]) == codes
        assert self.call(capsys, *first) == before

    def test_later_calls_build_no_parser(self, capsys, monkeypatch):
        from vnchain import cli

        self.call(capsys, "scenarios", "list")
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        for argv in (
            ("scenarios", "list"),
            ("emit", "stern-gerlach"),
            ("run", "stern-gerlach"),
            ("run", "x", "--format", "xml"),
            ("verify", "--trials", "0"),
        ):
            self.call(capsys, *argv)
        assert built == []
        cli._build_parser.__wrapped__()  # the counter sees a fresh build
        assert len(built) == 6


class TestScenarioNumbers:
    """Numbers that are bools, non-finite or out of floating-point range fail
    with a scenario code at their location, in one line, with no warning."""

    @staticmethod
    def run_doc(tmp_path, capsys, doc_text):
        import warnings

        from vnchain.cli import main

        path = tmp_path / "doc.json"
        path.write_text(doc_text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code = main(["run", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    @staticmethod
    def with_initial_state(state_text):
        doc = builtin_document("stern-gerlach")
        doc["initial"]["state"] = "@STATE@"
        return json.dumps(doc).replace('"@STATE@"', state_text)

    @pytest.mark.parametrize(
        "state,message",
        [
            ("[1" + "0" * 400 + ", 1]", "number out of floating-point range"),
            ("[[1e308, 0], [1e308, 0]]", "state norm overflows"),
            ("[NaN, 1]", "non-finite number nan"),
            ("[[1, Infinity], 0]", "non-finite number [1, inf]"),
            ("[true, false]", "expected [re, im], got True"),
            ("[[1, true], 0]", "expected [re, im], got [1, True]"),
        ],
    )
    def test_initial_state_number_is_a_scenario_error(self, tmp_path, capsys, state, message):
        code, out, err = self.run_doc(tmp_path, capsys, self.with_initial_state(state))
        assert (code, out) == (1, "")
        assert err == f"scenario error: [malformed-state] at $.initial.state: {message}\n"

    def test_boolean_dimension_is_a_scenario_error(self, tmp_path, capsys):
        doc = builtin_document("stern-gerlach")
        doc["subsystems"][0][1] = True
        code, out, err = self.run_doc(tmp_path, capsys, json.dumps(doc))
        assert (code, out) == (1, "")
        assert err == (
            "scenario error: [dimension-mismatch] at $.subsystems[0]: "
            "dimension must be a positive int, got True\n"
        )

    @pytest.mark.parametrize("seed", [True, -5, 1.5])
    def test_dressing_seed_is_a_non_negative_int(self, tmp_path, capsys, seed):
        doc = builtin_document("stern-gerlach")
        doc["stages"][0]["kind"] = "exact"
        doc["stages"][0]["dressing_seed"] = seed
        code, out, err = self.run_doc(tmp_path, capsys, json.dumps(doc))
        assert (code, out) == (1, "")
        assert err == (
            "scenario error: [bad-value] at $.stages[0].dressing_seed: "
            f"expected an int >= 0, got {seed!r}\n"
        )

    def test_boolean_observable_matrix_entry_is_the_observables_fault(self, tmp_path, capsys):
        doc = builtin_document("stern-gerlach")
        doc["stages"][0]["measured"] = {"matrix": [[True, 0], [0, -1]]}
        code, out, err = self.run_doc(tmp_path, capsys, json.dumps(doc))
        assert (code, out) == (1, "")
        assert err == (
            "scenario error: [bad-observable] at $.stages[0].measured: "
            "expected [re, im], got True at $.stages[0].measured.matrix[0]\n"
        )

    def test_overflowing_anti_hermitian_observable_is_a_scenario_error(self, tmp_path, capsys):
        """h - h^dag of finite entries can pass the float range; the
        Hermiticity residual is then inf, with no floating-point warning."""
        doc = builtin_document("stern-gerlach")
        doc["stages"][0]["measured"] = {"matrix": [[0, 1e308], [-1e308, 0]]}
        code, out, err = self.run_doc(tmp_path, capsys, json.dumps(doc))
        assert (code, out) == (1, "")
        assert err == (
            "scenario error: [bad-observable] at $.stages[0].measured: "
            "matrix not Hermitian: residual inf\n"
        )

    def test_huge_finite_observable_runs(self, tmp_path, capsys):
        """Eigenvalues of +-1e308 are finite: symmetrizing the matrix and
        grouping its spectrum must not overflow on the way to them."""
        doc = builtin_document("stern-gerlach")
        doc["stages"][0]["measured"] = {"diag": [1e308, -1e308]}
        code, out, err = self.run_doc(tmp_path, capsys, json.dumps(doc))
        assert (code, err) == (0, "")
        assert out.endswith("result: PASS\n")

    def test_finite_numbers_still_parse(self):
        doc = builtin_document("stern-gerlach")
        doc["initial"]["state"] = [[3, 0], 4.0]
        amps = scenario_from_document(doc).initial.amplitudes
        np.testing.assert_allclose(amps, [0.6, 0.8], rtol=0, atol=1e-15)


class TestJsonRendering:
    """``run --format json`` prints what ``json.dumps(tree, indent=2,
    sort_keys=True)`` prints, byte for byte."""

    @pytest.mark.parametrize("dump", [False, True])
    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_reports(self, name, dump):
        report = run(load_builtin(name), RunOptions(seed=3, dump_states=dump))
        expected = json.dumps(report.to_tree(), indent=2, sort_keys=True) + "\n"
        assert report.render("json") == expected

    @pytest.mark.parametrize(
        "tree",
        [
            {},
            [],
            {"a": [], "b": {}, "c": [[]], "d": [{}]},
            {'quote"s': 'back\\slash "q"', "ctl": "\x00\t\n\x1f\x7f", "uni": "é☃\U0001f600"},
            [float("nan"), float("inf"), float("-inf"), -0.0, 0.1, 1e-300, 1e300, 5e-324],
            [True, False, None, 0, -7, 10**30, np.float64(0.1), np.float64("nan")],
            {"z": 1, "a": {"y": [1, "x"], "b": None}, "": "empty key"},
        ],
    )
    def test_synthetic_trees(self, tree):
        from vnchain.scenarios import _json_text

        assert _json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)

    # sha256 of `vnchain run ensemble-update --format json --seed s`, recorded
    # from the json.dumps renderer and the choice-based Monte Carlo count
    ENSEMBLE_UPDATE_JSON = {
        0: "e47495524dbb9b17cd8e79e5431080258497b073f115655a7b2738effc34397c",
        1: "7bd0677c3620062973702d96fd5143e189bfdb257e0f2c44451e1307ca2df633",
        2: "6c7166d1238dc6652af42f9721f369242828240d2f256ade8888dd9e8147fa4c",
        3: "f6949d45bfbaabf3b7b0b94ca57243787e964074c008f135f241a31468778e4c",
    }

    @pytest.mark.parametrize("seed", sorted(ENSEMBLE_UPDATE_JSON))
    def test_ensemble_update_report_bytes(self, capsys, seed):
        import hashlib

        from vnchain.cli import main

        assert main(["run", "ensemble-update", "--format", "json", "--seed", str(seed)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.ENSEMBLE_UPDATE_JSON[seed]


def _copy_link(obj: str, instrument: str, pointers: list[str]) -> dict:
    return {
        "object": obj,
        "instrument": instrument,
        "measured": {"diag": [0, 1]} if obj == "q0" else "previous-pointer",
        "pointer_states": pointers,
        "ready": "basis:0",
        "kind": "ideal",
    }


# A chain of five qubits, a qutrit t and a ququart f (D = 384).  Both t and f
# have idle pointer branches: t reads a qubit pointer with two states, and f
# reads t's three branches (idle, 0, 1) with three states, leaving |3> idle.
IDLE_POINTER_DOCUMENT = {
    "name": "idle-pointers",
    "subsystems": [["q0", 2], ["q1", 2], ["q2", 2], ["q3", 2], ["q4", 2], ["t", 3], ["f", 4]],
    "initial": {"subsystem": "q0", "state": [[0.6, 0.0], [0.48, 0.64]]},
    "stages": [
        *(
            _copy_link(a, b, ["basis:0", "basis:1"])
            for a, b in zip(("q0", "q1", "q2", "q3", "q4"), ("q1", "q2", "q3", "q4", "t"))
        ),
        _copy_link("t", "f", ["basis:2", "basis:0", "basis:1"]),
    ],
    "analyses": [
        "branches",
        "improper_mixture",
        {"kind": "world_branches", "pointer_stage": 0},
        {
            "kind": "ensemble_update",
            "projector": {"subsystem": "t", "state": [[0.6, 0.0], [0.0, 0.48], [0.64, 0.0]]},
            "samples": 2000,
        },
        {
            "kind": "ensemble_update",
            "projector": {"subsystem": "t", "stage": 4, "branch": 2},
            "samples": 2000,
        },
        "condition_reports",
    ],
}


class TestEnsembleProjectorBytes:
    """sha256 of `vnchain run` output for the three kinds of
    ``ensemble_update`` projector, recorded while projectors were still
    resolved at run time: resolving them in the parser moves no byte."""

    DIGESTS = {
        ("default", "text"): "4c8cab48ad878acf104c0a4a8bf596380c59a213a46853a49a3aa81a609dc12d",
        ("default", "json"): "7a45dbb6ba22f091627979a4700914038c441f942621644f07c89986158e9056",
        ("state", "text"): "2734f3eeb65b9aa939d394a9bba1562769007fc406730e70f05cec1da218c702",
        ("state", "json"): "52e7b9b11030acf1439623d2c29585e5769c68dbcbf3cad77b7a80aa0e44e07b",
        ("branch", "text"): "d4b31b106dff0f82013cd03e462b4d8cc7c4499baca98ac66f22f2cf0604169e",
        ("branch", "json"): "8037b466fc742709a3ef9461b08723dc196a75ad5121222c8dcebcab94a3aa18",
    }

    @pytest.mark.parametrize("kind, fmt", sorted(DIGESTS))
    def test_report_bytes(self, capsys, tmp_path, kind, fmt):
        import hashlib

        from vnchain.cli import main

        doc = builtin_document("ensemble-update")
        analysis = doc["analyses"][0]
        analysis["samples"] = 2000
        if kind == "default":  # the plus state of the last instrument
            del analysis["projector"]
        elif kind == "branch":
            analysis["projector"] = {"subsystem": "meter", "branch": 1}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--format", fmt, "--seed", "0"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[kind, fmt]


class TestRunReportBytes:
    """sha256 of `vnchain run` output, recorded before the idle pointer branch
    became implicit (no complement block): the report of every builtin and of
    a chain with idle pointers must not move by one byte."""

    DIGESTS = {
        ("stern-gerlach", "text", 0): "522fa0d5300931acbe2eeb88b89f8a49366896b8ee074e96deddb7e59af14f61",
        ("stern-gerlach", "json", 0): "620e83de7d9e03157611163358863fb413b182769e9092e96dda078b2ecdb291",
        ("stern-gerlach", "text", 3): "bb771c19c3f6f358fa5288d123953681524a895738d12531ae07215ed1d2bd8d",
        ("stern-gerlach", "json", 3): "0479431b649c3adc721b0aa43ce9ceb9774201001c4ce4c6183a367724d2cdb5",
        ("wigner-friend", "text", 0): "64159b3dcfdaccf0147ac8c5debb65a138bdcefb186449059aba3a746caa4905",
        ("wigner-friend", "json", 0): "d3be751df207c6f66c0eeb3a481df902d5c45d1402e5d22626e0cef66d1141a2",
        ("wigner-friend", "text", 3): "5545c2bd05288d5ebceb14e0b8ab3723ff3327847a04710b2ff33d595bea6a35",
        ("wigner-friend", "json", 3): "d59ea775e7fcd5d22504b9f564ba0f680760560307c1f6ac23c93b2c873d7233",
        ("world-split", "text", 0): "121610274bb7dc7d7de2c9565b8b58e6c854e696c149aa02dd7dad80444635f8",
        ("world-split", "json", 0): "e53ccfc72de523d0a7ed543c43d2b7c280833489bdb2d9cf185eb0158dbedefc",
        ("world-split", "text", 3): "a2d6d8d30454fe21dd7878bff4f2f9a31ef7824624cfd3aa4fe018affb954702",
        ("world-split", "json", 3): "1e520c6b606fa4fd8afc641f72eeea9c964ee9eade9b4822bd3f4628f50ccfdd",
        ("ensemble-update", "text", 0): "77c22c4fe879e85420bd611a57b96e15b59f87283fb36118d82229841a876276",
        ("ensemble-update", "json", 0): "e47495524dbb9b17cd8e79e5431080258497b073f115655a7b2738effc34397c",
        ("ensemble-update", "text", 3): "4c90c84da0abcd474f64e3a4bdc439f23f215b737c7166886d9f99856274a0bf",
        ("ensemble-update", "json", 3): "f6949d45bfbaabf3b7b0b94ca57243787e964074c008f135f241a31468778e4c",
        ("idle-pointers", "text", 0): "7a81034bc78a172bcc27e0abb9fee5e13be169cd806555d1685aa6a8393d309f",
        ("idle-pointers", "json", 0): "ab7b6bd88f881f62a8c6f93f1049cfd89697d8cd6b04e25fe9be69af0c16ed71",
        ("idle-pointers", "text", 3): "84517124f5d6e36e26762324a39908ca2d79e51ac1c087c8060b6283f92e4092",
        ("idle-pointers", "json", 3): "2ef81331599337347f476ede7c26da311c0368e42cc4aa85a9d94a999b14ec8b",
    }

    @pytest.mark.parametrize("name, fmt, seed", sorted(DIGESTS))
    def test_report_bytes(self, capsys, tmp_path, name, fmt, seed):
        import hashlib

        from vnchain.cli import main

        scenario = name
        if name == "idle-pointers":
            scenario = str(tmp_path / "idle.json")
            Path(scenario).write_text(json.dumps(IDLE_POINTER_DOCUMENT))
        assert main(["run", scenario, "--format", fmt, "--seed", str(seed)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[name, fmt, seed]


# Two documents whose first observable goes through ``observable_from_matrix``:
# a degenerate complex qutrit ``matrix`` (eigenvalues 0, 2, 2) read by an
# exact stage, and a ``pauli`` observable whose instrument, and the next
# one, have an idle pointer branch.
_SPECTRAL_ANALYSES = [
    "branches",
    "improper_mixture",
    {"kind": "world_branches", "pointer_stage": 0},
    "condition_reports",
]
MATRIX_EXACT_DOCUMENT = {
    "name": "matrix-exact",
    "subsystems": [["a", 3], ["b", 2], ["c", 2]],
    "initial": {"subsystem": "a", "state": [[0.6, 0.0], [0.0, 0.48], [0.64, 0.0]]},
    "stages": [
        {
            "object": "a",
            "instrument": "b",
            "measured": {"matrix": [[1, [0, 1], 0], [[0, -1], 1, 0], [0, 0, 2]]},
            "pointer_states": ["basis:0", "basis:1"],
            "ready": "basis:0",
            "kind": "exact",
        },
        {
            "object": "b",
            "instrument": "c",
            "measured": "previous-pointer",
            "pointer_states": ["basis:0", "basis:1"],
            "ready": "basis:0",
            "kind": "ideal",
        },
    ],
    "analyses": _SPECTRAL_ANALYSES,
}
PAULI_IDLE_DOCUMENT = {
    "name": "pauli-idle",
    "subsystems": [["q", 2], ["m", 3], ["n", 4]],
    "initial": {"subsystem": "q", "state": [[0.6, 0.0], [0.48, 0.64]]},
    "stages": [
        {
            "object": "q",
            "instrument": "m",
            "measured": {"pauli": "y"},
            "pointer_states": ["basis:0", "basis:1"],
            "ready": "basis:0",
            "kind": "ideal",
        },
        {
            "object": "m",
            "instrument": "n",
            "measured": "previous-pointer",
            "pointer_states": ["basis:1", "basis:2", "basis:3"],
            "ready": "basis:0",
            "kind": "ideal",
        },
    ],
    "analyses": _SPECTRAL_ANALYSES,
}


class TestMatrixObservableBytes:
    """sha256 of `vnchain run` output for a ``matrix`` and a ``pauli``
    observable, recorded while each observable kept its eigenvector blocks
    as separate arrays: keeping them as views of the observable's checked
    columns moves no byte.  The ``matrix-exact`` digests also pin the
    random dressing of its exact stage, as ``random_dressings`` draws it."""

    DOCUMENTS = {"matrix-exact": MATRIX_EXACT_DOCUMENT, "pauli-idle": PAULI_IDLE_DOCUMENT}
    DIGESTS = {
        ("matrix-exact", "json", 0): "55996c4a45ccec410a45fd8d8a9f4939a01c2cec962fcaea4da30fc9ef6100f2",
        ("matrix-exact", "json", 5): "8de893813d83df1d4cc41d883ea90344ed06005340c7877875e016f735a58918",
        ("matrix-exact", "text", 0): "ca1ccf9534676d7874cb930e34e549e89c1371452c684d9233f3ab7c902bb7bf",
        ("matrix-exact", "text", 5): "cf79a113e706a646b962f6c360135e6f724e1ed50dec3d2ca69f0efe5a7092c1",
        ("pauli-idle", "json", 0): "faa27fb2520336759fbe4356a948522c2b3d21ce51f34fea5e9a39ad9b49b5a0",
        ("pauli-idle", "json", 5): "ba51a76beb00aabce9e62b4e478e3ed6003fae61bbf3f5644fc950011eca55b0",
        ("pauli-idle", "text", 0): "6583c76d58094eaf71cd01dbed423cc4b10eed6578ac0b189649422b38877c77",
        ("pauli-idle", "text", 5): "fa3a2e11d1e65c4f37e10debbe5380c53e9342c1b38aa13ae14ea603ea9f87cd",
    }

    @pytest.mark.parametrize("name, fmt, seed", sorted(DIGESTS))
    def test_report_bytes(self, capsys, tmp_path, name, fmt, seed):
        import hashlib

        from vnchain.cli import main

        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(self.DOCUMENTS[name]))
        assert main(["run", str(path), "--format", fmt, "--seed", str(seed)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[name, fmt, seed]
