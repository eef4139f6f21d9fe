"""Workload inputs and the independent output checks for the vnchain benchmark.

Nothing here imports ``vnchain``: the expected results are derived from the
generated inputs alone, so an operation is judged against a computation
made apart from the program, never against a stored copy of its output.

Every chain scenario is an ideal copy chain started from a two-component
superposition a_0|0> + a_1|1>.  Its final state is sum_k a_k |k,...,k>, so
every branch, improper-mixture and world-branch weight is |a_k|^2.
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("chain_pure", "chain_mixed", "verify_grid")

INPUTS_PER_CYCLE = 4  # distinct inputs a run cycles through, all of one size
PURE_QUBITS = 11  # chain_pure: D = 2**11 = 2048
MIXED_SUBSYSTEMS = (
    ("q0", 2), ("q1", 2), ("q2", 2), ("q3", 2), ("q4", 2), ("t", 3), ("f", 4),
)  # chain_mixed: D = 2**5 * 3 * 4 = 384
# Pointer states of the ququart: it reads the qutrit pointer, whose branches
# are ordered by eigenvalue (-1 idle, 0, 1), and copies 0 -> |0>, 1 -> |1>.
# The idle qutrit branch maps to |2>; |3> is left over as an idle branch.
MIXED_F_POINTERS = ("basis:2", "basis:0", "basis:1")
MIXED_EVENT_SUBSYSTEM = "t"
MC_SAMPLES = 20_000
VERIFY_ARGS = ("verify", "--format", "json")  # default grid: dims 4,6, 100 trials
VERIFY_WARMUP_ARGS = (*VERIFY_ARGS, "--trials", "10")

WEIGHT_TOL = 1e-9  # weights are printed with 10 decimals
DISTANCE_TOL = 1e-6  # trace distances are printed with 6 decimals

VERIFY_SUITES = (
    "hilbert.partial_trace_commutativity",
    "hilbert.partial_trace_trace_one",
    "hilbert.partial_trace_psd",
    "hilbert.expansion_resummation",
    "hilbert.psp_matches_expansion",
    "observables.spectral_reconstruction",
    "premeasurement.equivalence_triangle",
    "premeasurement.ideal_definitions",
    "premeasurement.pointer_completeness",
    "premeasurement.identity_dressing",
    "chains.two_link_resummation",
    "chains.decoherence_split",
    "chains.relative_state_forms",
    "chains.conditional_equivalences",
    "chains.tripartite_consistency",
    "chains.born_weights",
    "chains.absoluteness",
    "chains.redecomposition_invariance",
    "chains.monte_carlo_binomial",
)


class CheckFailed(AssertionError):
    """An operation's output disagrees with the independently computed result."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _amplitudes(rng: np.random.Generator) -> np.ndarray:
    """Unequal two-branch superposition with a relative phase."""
    p0 = rng.uniform(0.15, 0.4) if rng.random() < 0.5 else rng.uniform(0.6, 0.85)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([math.sqrt(p0), math.sqrt(1.0 - p0) * complex(math.cos(phase), math.sin(phase))])


def _copy_stages(subsystems, last_pointers=None) -> list[dict]:
    stages = []
    labels = [label for label, _ in subsystems]
    for i in range(len(labels) - 1):
        pointers = ["basis:0", "basis:1"]
        if last_pointers is not None and i == len(labels) - 2:
            pointers = list(last_pointers)
        stages.append(
            {
                "object": labels[i],
                "instrument": labels[i + 1],
                "measured": {"diag": [0, 1]} if i == 0 else "previous-pointer",
                "pointer_states": pointers,
                "ready": "basis:0",
                "kind": "ideal",
            }
        )
    return stages


def _pointer_branch_index(pointer_specs, dim: int, digit: int) -> int:
    """Branch index of the pointer projector onto |digit>.

    A pointer built from states gives state j the eigenvalue j and any
    leftover space the eigenvalue -1; branches are ordered by eigenvalue.
    """
    j = list(pointer_specs).index(f"basis:{digit}")
    return j + (1 if len(pointer_specs) < dim else 0)


def _mc_accepted(weights, probs, n_samples: int, seed: int) -> np.ndarray:
    """The documented sampling order: member indices first, then one coin each."""
    w = np.asarray(weights, dtype=float)
    rng = np.random.default_rng(seed)
    members = rng.choice(len(w), size=n_samples, p=w / w.sum())
    coins = rng.random(n_samples)
    accepted = coins < np.asarray(probs)[members]
    return np.bincount(members[accepted], minlength=len(w))


def _mc_within_3se(posterior, accepted) -> bool:
    total = accepted.sum()
    for w, c in zip(posterior, accepted):
        se = math.sqrt(max(w * (1 - w), 1e-300) / total)
        if abs(c / total - w) > 3 * se:
            return False
    return True


def _pure_case(rng: np.random.Generator) -> dict:
    amps = _amplitudes(rng)
    subsystems = [(f"q{i}", 2) for i in range(PURE_QUBITS)]
    doc = {
        "name": "bench-chain-pure",
        "subsystems": [list(s) for s in subsystems],
        "initial": {"subsystem": "q0", "state": [_pair(a) for a in amps]},
        "stages": _copy_stages(subsystems),
        "analyses": ["branches"],
    }
    run_seed = int(rng.integers(1, 2**20))
    weights = [float(abs(a) ** 2) for a in amps]
    return {
        "doc": doc,
        "run_seed": run_seed,
        "expect": {"weights": weights, "qubits": PURE_QUBITS},
    }


def _mixed_case(rng: np.random.Generator) -> dict:
    amps = _amplitudes(rng)
    d_event = dict(MIXED_SUBSYSTEMS)[MIXED_EVENT_SUBSYSTEM]
    raw = rng.uniform(0.2, 1.0, d_event) * np.exp(1j * rng.uniform(0, 2 * math.pi, d_event))
    event = raw / np.linalg.norm(raw)
    weights = np.abs(amps) ** 2
    q = np.abs(event[:2]) ** 2  # member k sits at |k> on every subsystem
    posterior = weights * q / np.sum(weights * q)
    doc = {
        "name": "bench-chain-mixed",
        "subsystems": [list(s) for s in MIXED_SUBSYSTEMS],
        "initial": {"subsystem": "q0", "state": [_pair(a) for a in amps]},
        "stages": _copy_stages(MIXED_SUBSYSTEMS, MIXED_F_POINTERS),
        "analyses": [
            "improper_mixture",
            {"kind": "world_branches", "pointer_stage": 0},
            {
                "kind": "ensemble_update",
                "projector": {
                    "subsystem": MIXED_EVENT_SUBSYSTEM,
                    "state": [_pair(z) for z in event],
                },
                "samples": MC_SAMPLES,
            },
        ],
    }
    # The Monte Carlo check is a 3-standard-error band, which an honest
    # sampler leaves in about 0.5% of draws.  The run seed is the first one
    # whose draw, simulated here in the documented order, stays inside it.
    run_seed = int(rng.integers(1, 2**20))
    while True:
        accepted = _mc_accepted(weights, q, MC_SAMPLES, run_seed * 104_729 + 7)
        if _mc_within_3se(posterior, accepted):
            break
        run_seed += 1
    return {
        "doc": doc,
        "run_seed": run_seed,
        "expect": {
            "weights": [float(w) for w in weights],
            "posterior": [float(p) for p in posterior],
            "empirical": [float(c / accepted.sum()) for c in accepted],
            "improper_indices": [
                _pointer_branch_index(MIXED_F_POINTERS, dict(MIXED_SUBSYSTEMS)["f"], k)
                for k in (0, 1)
            ],
        },
    }


def make_cases(workload: str, seed: int) -> list[dict]:
    """The fixed cycle of inputs for one workload and seed.

    Each case holds ``argv`` (with ``{scenario}`` standing for the scenario
    file path), the scenario document if any, and what the checker expects.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cases = []
    for _ in range(INPUTS_PER_CYCLE):
        if workload == "verify_grid":
            cases.append(
                {
                    "doc": None,
                    "argv": [*VERIFY_ARGS, "--seed", str(int(rng.integers(0, 2**31)))],
                    "warmup_argv": list(VERIFY_WARMUP_ARGS),
                    "expect": {"max_object_dim": 4, "max_instrument_dim": 6, "trials": 100},
                }
            )
            continue
        case = _pure_case(rng) if workload == "chain_pure" else _mixed_case(rng)
        case["argv"] = ["run", "{scenario}", "--format", "json", "--seed", str(case["run_seed"])]
        cases.append(case)
    return cases


# ---------------------------------------------------------------------------
# Output checks.  Each takes the exit code and stdout of one ``vnchain``
# call and raises CheckFailed on any disagreement.


def _run_report(rc: int, stdout: str) -> dict:
    _require(rc == 0, f"exit code {rc}")
    report = json.loads(stdout)
    _require(report["passed"] is True, "report did not pass")
    for section in report["sections"]:
        for c in section["checks"]:
            _require(c["passed"] and c["value"] <= c["tolerance"], f"check {c['name']} failed")
    return report


def _section(report: dict, prefix: str) -> dict:
    found = [s for s in report["sections"] if s["title"].startswith(prefix)]
    _require(len(found) == 1, f"expected one section {prefix!r}, found {len(found)}")
    return found[0]


def _close(value: str | float, expected: float, tol: float, what: str) -> None:
    _require(abs(float(value) - expected) <= tol, f"{what}: {value} != {expected:.12f}")


def _weight_rows(section: dict, expected: dict[int, float]) -> None:
    column = section["columns"].index("weight")
    rows = {r[0]: r for r in section["rows"]}
    _require(len(rows) == len(section["rows"]), "repeated branch rows")
    _require("dropped" in rows, "no dropped-weight row")
    _close(rows.pop("dropped")[column], 0.0, WEIGHT_TOL, "dropped weight")
    got = sorted(int(k) for k in rows)
    _require(got == sorted(expected), f"branches {got} != {sorted(expected)}")
    for index, weight in expected.items():
        _close(rows[str(index)][column], weight, WEIGHT_TOL, f"weight of branch {index}")


def check_chain_pure(rc: int, stdout: str, expect: dict) -> None:
    report = _run_report(rc, stdout)
    section = _section(report, "branches")
    _weight_rows(section, dict(enumerate(expect["weights"])))
    for r in section["rows"]:
        if r[0] == "dropped":
            continue
        k = int(r[0])
        ket = ",".join([str(k)] * expect["qubits"])
        _require(r[3] == f"|{ket}> (1.0000)", f"branch {k} component {r[3]!r}")


def check_chain_mixed(rc: int, stdout: str, expect: dict) -> None:
    report = _run_report(rc, stdout)
    weights = expect["weights"]
    improper = _section(report, "improper mixture")
    _weight_rows(improper, {i: weights[k] for k, i in enumerate(expect["improper_indices"])})
    world = _section(report, "world branches")
    _weight_rows(world, dict(enumerate(weights)))
    distances = [n for n in world["notes"] if n.startswith("trace distance")]
    _require(len(distances) == 1, f"expected one trace distance, got {distances}")
    _close(distances[0].rsplit(":", 1)[1], 1.0, DISTANCE_TOL, "world-branch trace distance")
    ensemble = _section(report, "ensemble update")
    cols = ensemble["columns"]
    rows = {int(r[0]): r for r in ensemble["rows"]}
    _require(sorted(rows) == [0, 1], f"ensemble members {sorted(rows)}")
    for k in (0, 1):
        row = rows[k]
        _close(row[cols.index("prior")], weights[k], WEIGHT_TOL, f"prior of member {k}")
        _close(row[cols.index("posterior")], expect["posterior"][k], WEIGHT_TOL, f"posterior of member {k}")
        _close(row[cols.index("empirical")], expect["empirical"][k], WEIGHT_TOL, f"empirical weight of member {k}")


def expected_verify_cases(max_object_dim: int, max_instrument_dim: int, trials: int) -> dict[str, int]:
    """Case counts of the suites that run a fixed number of cases.

    Premeasurement suites run ``trials // grid points`` cases (at least one)
    at every (object dim, instrument dim) grid point, the grid starting at
    dimension 2; hilbert and observables suites run ``trials`` cases; some
    chain suites run a fixed fraction of them; the Monte Carlo suite runs 10
    repetitions.  The remaining suites skip ill-conditioned draws.
    """
    points = (max_object_dim - 1) * (max_instrument_dim - 1)
    per_grid = points * max(1, trials // points)
    counts = dict.fromkeys(
        (
            "hilbert.partial_trace_commutativity",
            "hilbert.partial_trace_trace_one",
            "hilbert.partial_trace_psd",
            "hilbert.expansion_resummation",
            "hilbert.psp_matches_expansion",
            "observables.spectral_reconstruction",
        ),
        trials,
    )
    counts.update(
        dict.fromkeys(
            (
                "premeasurement.equivalence_triangle",
                "premeasurement.ideal_definitions",
                "premeasurement.pointer_completeness",
                "premeasurement.identity_dressing",
            ),
            per_grid,
        )
    )
    counts.update(
        {
            "chains.two_link_resummation": max(1, trials // 10),
            "chains.decoherence_split": max(1, trials // 10),
            "chains.born_weights": max(1, trials // 5),
            "chains.absoluteness": max(1, trials // 5),
            "chains.monte_carlo_binomial": 10,
        }
    )
    return counts


def check_verify_grid(rc: int, stdout: str, expect: dict) -> None:
    _require(rc == 0, f"exit code {rc}")
    tree = json.loads(stdout)
    suites = {s["name"]: s for s in tree["suites"]}
    _require(
        [s["name"] for s in tree["suites"]] == list(VERIFY_SUITES),
        f"suites {sorted(suites)} are not the 19 expected",
    )
    for s in tree["suites"]:
        _require(s["passed"] and s["max_residual"] <= s["tolerance"], f"suite {s['name']} failed")
    _require(tree["passed"] is True, "verify did not pass")
    fixed = expected_verify_cases(
        expect["max_object_dim"], expect["max_instrument_dim"], expect["trials"]
    )
    for name, s in suites.items():
        if name in fixed:
            _require(s["cases"] == fixed[name], f"{name}: {s['cases']} cases, expected {fixed[name]}")
        else:
            _require(0 < s["cases"] <= expect["trials"], f"{name}: {s['cases']} cases")


CHECKS = {
    "chain_pure": check_chain_pure,
    "chain_mixed": check_chain_mixed,
    "verify_grid": check_verify_grid,
}
