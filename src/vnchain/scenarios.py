"""Declarative chain scenarios: parse, execute, report.

Scenario documents are JSON trees.  Complex numbers are written as
``[re, im]`` pairs; states may be amplitude lists or named presets
(``plus``, ``minus``, ``basis:k``, ``bell``); observables may be given as
``{"pauli": "z"}``, ``{"diag": [...]}``, an explicit ``{"matrix": ...}``,
or the string ``"previous-pointer"`` for chain links that read the
preceding stage's result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .branches import BranchDecomposition
from .chains import (
    ensemble_update,
    extend_chain,
    improper_mixture,
    monte_carlo_update,
    offdiagonal_block_norm,
    proper_mixture,
    world_branches,
)
from .hilbert import (
    StateVector,
    SubsystemBasis,
    SubsystemLayout,
    factor_difference,
    partial_trace,
    purity,
    random_unitary,
    trace_distance,
)
from .observables import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SpectralObservable,
    observable_from_matrix,
)
from .premeasurement import (
    Premeasurement,
    branch_decomposition,
    build_exact,
    build_ideal,
    check_conditions,
    evolve,
    random_range_unitary,
)

# Diagnostic codes carried by ScenarioError.
E_MALFORMED_JSON = "malformed-json"
E_MISSING_FIELD = "missing-field"
E_BAD_VALUE = "bad-value"
E_EMPTY_STAGES = "empty-stages"
E_UNKNOWN_LABEL = "unknown-label"
E_DUPLICATE_LABEL = "duplicate-label"
E_DIMENSION = "dimension-mismatch"
E_MALFORMED_STATE = "malformed-state"
E_BAD_OBSERVABLE = "bad-observable"
E_CHAIN_ORDER = "chain-order"
E_UNKNOWN_ANALYSIS = "unknown-analysis"
E_UNKNOWN_BUILTIN = "unknown-builtin"


class ScenarioError(ValueError):
    """Validation diagnostic with a machine-readable code and a field path."""

    def __init__(self, code: str, location: str, message: str):
        self.code = code
        self.location = location
        super().__init__(f"[{code}] at {location}: {message}")


@dataclass(frozen=True)
class DressingSpec:
    mode: str  # "random" or "explicit"
    seed: int | None = None
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...] = ()


@dataclass(frozen=True)
class StageSpec:
    index: int
    object_label: str
    instrument_label: str
    measured: SpectralObservable | None  # None: read the previous stage's pointer
    pointer_states: SubsystemBasis
    ready: StateVector
    kind: str  # "ideal" or "exact"
    dressings: DressingSpec | None = None


@dataclass(frozen=True)
class AnalysisSpec:
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    layout: SubsystemLayout
    initial: StateVector
    stages: tuple[StageSpec, ...]
    analyses: tuple[AnalysisSpec, ...]


ANALYSIS_KINDS = (
    "branches",
    "improper_mixture",
    "world_branches",
    "ensemble_update",
    "condition_reports",
)


def _require(doc: dict, key: str, location: str) -> Any:
    if key not in doc:
        raise ScenarioError(E_MISSING_FIELD, location, f"missing required field {key!r}")
    return doc[key]


def _parse_complex(value: Any, location: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(x, (int, float)) for x in value)
    ):
        return complex(value[0], value[1])
    raise ScenarioError(E_MALFORMED_STATE, location, f"expected [re, im], got {value!r}")


def _parse_amplitudes(spec: Any, dim: int, location: str) -> np.ndarray:
    if isinstance(spec, str):
        if spec == "plus":
            if dim < 2:
                raise ScenarioError(E_DIMENSION, location, "'plus' needs dimension >= 2")
            amps = np.zeros(dim, dtype=complex)
            amps[0] = amps[1] = 1 / math.sqrt(2)
            return amps
        if spec == "minus":
            if dim < 2:
                raise ScenarioError(E_DIMENSION, location, "'minus' needs dimension >= 2")
            amps = np.zeros(dim, dtype=complex)
            amps[0], amps[1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
            return amps
        if spec.startswith("basis:"):
            try:
                k = int(spec.split(":", 1)[1])
            except ValueError:
                raise ScenarioError(E_MALFORMED_STATE, location, f"bad basis index in {spec!r}")
            if not 0 <= k < dim:
                raise ScenarioError(E_DIMENSION, location, f"basis index {k} out of range for dim {dim}")
            amps = np.zeros(dim, dtype=complex)
            amps[k] = 1.0
            return amps
        if spec == "bell":
            if dim != 4:
                raise ScenarioError(E_DIMENSION, location, "'bell' needs dimension 4")
            return np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        raise ScenarioError(E_MALFORMED_STATE, location, f"unknown state preset {spec!r}")
    if isinstance(spec, list):
        if len(spec) != dim:
            raise ScenarioError(
                E_DIMENSION, location, f"{len(spec)} amplitudes for dimension {dim}"
            )
        amps = np.array([_parse_complex(x, location) for x in spec])
        n = np.linalg.norm(amps)
        if n < 1e-12:
            raise ScenarioError(E_MALFORMED_STATE, location, "state has zero norm")
        return amps / n
    raise ScenarioError(E_MALFORMED_STATE, location, f"cannot read state spec {spec!r}")


def _parse_matrix(spec: Any, dim: int, location: str) -> np.ndarray:
    if not isinstance(spec, list) or len(spec) != dim:
        raise ScenarioError(E_DIMENSION, location, f"expected a {dim}x{dim} matrix")
    rows = []
    for i, row in enumerate(spec):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioError(E_DIMENSION, f"{location}[{i}]", f"expected {dim} entries")
        rows.append([_parse_complex(x, f"{location}[{i}]") for x in row])
    return np.array(rows, dtype=complex)


def _parse_observable(
    spec: Any, subsystem: str, dim: int, location: str
) -> SpectralObservable | None:
    if spec == "previous-pointer":
        return None
    if isinstance(spec, dict):
        if "pauli" in spec:
            name = str(spec["pauli"]).lower()
            mat = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}.get(name)
            if mat is None:
                raise ScenarioError(E_BAD_OBSERVABLE, location, f"unknown pauli {name!r}")
            if dim != 2:
                raise ScenarioError(E_DIMENSION, location, "pauli observables need dim 2")
            return observable_from_matrix(mat, subsystem)
        if "diag" in spec:
            vals = spec["diag"]
            if not isinstance(vals, list) or len(vals) != dim:
                raise ScenarioError(E_DIMENSION, location, f"'diag' needs {dim} values")
            try:  # non-numeric, NaN or infinite entries
                return observable_from_matrix(np.diag(np.array(vals, dtype=float)), subsystem)
            except (TypeError, ValueError) as exc:
                raise ScenarioError(E_BAD_OBSERVABLE, location, str(exc))
        if "matrix" in spec:
            mat = _parse_matrix(spec["matrix"], dim, f"{location}.matrix")
            try:
                return observable_from_matrix(mat, subsystem)
            except ValueError as exc:
                raise ScenarioError(E_BAD_OBSERVABLE, location, str(exc))
    raise ScenarioError(E_BAD_OBSERVABLE, location, f"cannot read observable spec {spec!r}")


def _check_count(value: Any, minimum: int, location: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ScenarioError(
            E_BAD_VALUE, location, f"expected an int >= {minimum}, got {value!r}"
        )


def _check_stage(value: Any, n_stages: int, location: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < n_stages:
        raise ScenarioError(E_BAD_VALUE, location, f"stage index {value!r} out of range")


def _check_projector(pdoc: Any, n_stages: int, location: str) -> None:
    """Shape of an ``ensemble_update`` projector; branch ranges are checked at run time."""
    if not isinstance(pdoc, dict):
        raise ScenarioError(E_BAD_VALUE, location, f"expected an object, got {pdoc!r}")
    if "stage" in pdoc:
        _check_stage(pdoc["stage"], n_stages, f"{location}.stage")
    if "branch" in pdoc:
        _check_count(pdoc["branch"], 0, f"{location}.branch")


def scenario_from_document(doc: dict) -> Scenario:
    """Validate a parsed JSON tree into a Scenario."""
    if not isinstance(doc, dict):
        raise ScenarioError(E_BAD_VALUE, "$", "document must be an object")
    name = str(doc.get("name", "unnamed"))
    subs = _require(doc, "subsystems", "$")
    if not isinstance(subs, list) or not subs:
        raise ScenarioError(E_BAD_VALUE, "$.subsystems", "expected a non-empty list")
    pairs = []
    seen = set()
    for i, entry in enumerate(subs):
        loc = f"$.subsystems[{i}]"
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ScenarioError(E_BAD_VALUE, loc, "expected [label, dimension]")
        label, dim = str(entry[0]), entry[1]
        if label in seen:
            raise ScenarioError(E_DUPLICATE_LABEL, loc, f"label {label!r} repeated")
        seen.add(label)
        if not isinstance(dim, int) or dim < 1:
            raise ScenarioError(E_DIMENSION, loc, f"dimension must be a positive int, got {dim!r}")
        pairs.append((label, dim))
    lay = SubsystemLayout(tuple(pairs))

    stages_doc = _require(doc, "stages", "$")
    if not isinstance(stages_doc, list):
        raise ScenarioError(E_BAD_VALUE, "$.stages", "expected a list")
    if not stages_doc:
        raise ScenarioError(E_EMPTY_STAGES, "$.stages", "scenario needs at least one stage")

    stages: list[StageSpec] = []
    for t, sdoc in enumerate(stages_doc):
        loc = f"$.stages[{t}]"
        if not isinstance(sdoc, dict):
            raise ScenarioError(E_BAD_VALUE, loc, "stage must be an object")
        obj = str(_require(sdoc, "object", loc))
        instr = str(_require(sdoc, "instrument", loc))
        for label in (obj, instr):
            if label not in lay.labels:
                raise ScenarioError(E_UNKNOWN_LABEL, loc, f"subsystem {label!r} not declared")
        if t == 0:
            if obj != lay.labels[0]:
                raise ScenarioError(
                    E_CHAIN_ORDER, loc, f"first stage must measure {lay.labels[0]!r}"
                )
        elif obj != stages[t - 1].instrument_label:
            raise ScenarioError(
                E_CHAIN_ORDER,
                loc,
                f"stage {t} object {obj!r} must be stage {t - 1}'s instrument "
                f"{stages[t - 1].instrument_label!r}",
            )
        d_obj, d_instr = lay.dim_of(obj), lay.dim_of(instr)

        measured = _parse_observable(
            _require(sdoc, "measured", loc), obj, d_obj, f"{loc}.measured"
        )
        if measured is None and t == 0:
            raise ScenarioError(
                E_CHAIN_ORDER, f"{loc}.measured", "first stage cannot read a previous pointer"
            )

        pstates_doc = _require(sdoc, "pointer_states", loc)
        if not isinstance(pstates_doc, list) or not pstates_doc:
            raise ScenarioError(E_BAD_VALUE, f"{loc}.pointer_states", "expected a non-empty list")
        vectors = tuple(
            _parse_amplitudes(s, d_instr, f"{loc}.pointer_states[{i}]")
            for i, s in enumerate(pstates_doc)
        )
        try:
            pointer_states = SubsystemBasis(instr, vectors)
        except ValueError as exc:
            raise ScenarioError(E_MALFORMED_STATE, f"{loc}.pointer_states", str(exc))
        if measured is not None and len(vectors) != measured.branch_count:
            raise ScenarioError(
                E_DIMENSION,
                f"{loc}.pointer_states",
                f"{len(vectors)} pointer states for {measured.branch_count} branches",
            )

        ready = StateVector(
            SubsystemLayout(((instr, d_instr),)),
            _parse_amplitudes(_require(sdoc, "ready", loc), d_instr, f"{loc}.ready"),
        )

        kind = str(sdoc.get("kind", "ideal"))
        dressings = None
        if kind == "exact":
            ddoc = sdoc.get("dressings", "random")
            if ddoc == "random":
                seed = sdoc.get("dressing_seed")
                if seed is not None and not isinstance(seed, int):
                    raise ScenarioError(E_BAD_VALUE, f"{loc}.dressing_seed", "expected an int")
                dressings = DressingSpec("random", seed=seed)
            elif isinstance(ddoc, list):
                pairs_d = []
                for i, pdoc in enumerate(ddoc):
                    ploc = f"{loc}.dressings[{i}]"
                    if not isinstance(pdoc, dict):
                        raise ScenarioError(E_BAD_VALUE, ploc, "expected an object")
                    v = _parse_matrix(_require(pdoc, "object", ploc), d_obj, f"{ploc}.object")
                    w = _parse_matrix(
                        _require(pdoc, "instrument", ploc), d_instr, f"{ploc}.instrument"
                    )
                    pairs_d.append((v, w))
                dressings = DressingSpec("explicit", pairs=tuple(pairs_d))
            else:
                raise ScenarioError(E_BAD_VALUE, f"{loc}.dressings", f"cannot read {ddoc!r}")
        elif kind != "ideal":
            raise ScenarioError(E_BAD_VALUE, f"{loc}.kind", f"unknown stage kind {kind!r}")

        stages.append(
            StageSpec(t, obj, instr, measured, pointer_states, ready, kind, dressings)
        )

    init_doc = _require(doc, "initial", "$")
    if isinstance(init_doc, dict):
        init_sub = str(init_doc.get("subsystem", stages[0].object_label))
        init_spec = _require(init_doc, "state", "$.initial")
    else:
        init_sub, init_spec = stages[0].object_label, init_doc
    if init_sub != stages[0].object_label:
        raise ScenarioError(
            E_CHAIN_ORDER, "$.initial", f"initial state must live on {stages[0].object_label!r}"
        )
    d0 = lay.dim_of(init_sub)
    initial = StateVector(
        SubsystemLayout(((init_sub, d0),)),
        _parse_amplitudes(init_spec, d0, "$.initial.state"),
    )

    analyses_doc = doc.get("analyses", ["branches"])
    if not isinstance(analyses_doc, list):
        raise ScenarioError(E_BAD_VALUE, "$.analyses", "expected a list")
    analyses = []
    for i, adoc in enumerate(analyses_doc):
        loc = f"$.analyses[{i}]"
        if isinstance(adoc, str):
            kind, params = adoc, {}
        elif isinstance(adoc, dict):
            kind = str(adoc.get("kind", ""))
            params = {k: v for k, v in adoc.items() if k != "kind"}
        else:
            raise ScenarioError(E_BAD_VALUE, loc, "analysis must be a string or object")
        if kind not in ANALYSIS_KINDS:
            raise ScenarioError(E_UNKNOWN_ANALYSIS, loc, f"unknown analysis {kind!r}")
        for key in ("stage", "pointer_stage", "source_stage"):
            if key in params:
                _check_stage(params[key], len(stages), f"{loc}.{key}")
        if kind == "condition_reports" and "trials" in params:
            _check_count(params["trials"], 1, f"{loc}.trials")
        if kind == "ensemble_update":
            if "samples" in params:
                _check_count(params["samples"], 0, f"{loc}.samples")
            if "projector" in params:
                _check_projector(params["projector"], len(stages), f"{loc}.projector")
        analyses.append(AnalysisSpec(kind, params))

    return Scenario(name, lay, initial, tuple(stages), tuple(analyses))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            E_MALFORMED_JSON, f"line {exc.lineno}, column {exc.colno}", exc.msg
        )
    return scenario_from_document(doc)


def _complex_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def emit_document(scenario: Scenario) -> dict:
    """Serialize a Scenario back into a document tree.

    Presets are resolved, so the output uses explicit amplitude lists and
    matrices; parsing it again yields an equivalent Scenario.
    """
    doc: dict[str, Any] = {
        "name": scenario.name,
        "subsystems": [[label, dim] for label, dim in scenario.layout.subsystems],
        "initial": {
            "subsystem": scenario.initial.layout.labels[0],
            "state": [_complex_pair(z) for z in scenario.initial.amplitudes],
        },
        "stages": [],
        "analyses": [
            {"kind": a.kind, **a.params} if a.params else a.kind for a in scenario.analyses
        ],
    }
    for st in scenario.stages:
        sdoc: dict[str, Any] = {
            "object": st.object_label,
            "instrument": st.instrument_label,
            "measured": "previous-pointer"
            if st.measured is None
            else {"matrix": [[_complex_pair(z) for z in row] for row in st.measured.matrix()]},
            "pointer_states": [
                [_complex_pair(z) for z in v] for v in st.pointer_states.vectors
            ],
            "ready": [_complex_pair(z) for z in st.ready.amplitudes],
            "kind": st.kind,
        }
        if st.dressings is not None:
            if st.dressings.mode == "random":
                sdoc["dressings"] = "random"
                if st.dressings.seed is not None:
                    sdoc["dressing_seed"] = st.dressings.seed
            else:
                sdoc["dressings"] = [
                    {
                        "object": [[_complex_pair(z) for z in row] for row in v],
                        "instrument": [[_complex_pair(z) for z in row] for row in w],
                    }
                    for v, w in st.dressings.pairs
                ]
        doc["stages"].append(sdoc)
    return doc


# ---------------------------------------------------------------------------
# Built-in scenarios (embedded documents).

_SQ3 = math.sqrt(0.3)
_SQ7 = math.sqrt(0.7)

BUILTIN_DOCUMENTS: dict[str, dict] = {
    "stern-gerlach": {
        "name": "stern-gerlach",
        "subsystems": [["spin", 2], ["orbit", 2], ["screen", 2]],
        "initial": {"subsystem": "spin", "state": "plus"},
        "stages": [
            {
                "object": "spin",
                "instrument": "orbit",
                "measured": {"diag": [0, 1]},
                "pointer_states": ["basis:0", "basis:1"],
                "ready": "basis:0",
                "kind": "ideal",
            },
            {
                "object": "orbit",
                "instrument": "screen",
                "measured": "previous-pointer",
                "pointer_states": ["basis:0", "basis:1"],
                "ready": "basis:0",
                "kind": "ideal",
            },
        ],
        "analyses": ["branches"],
    },
    "wigner-friend": {
        "name": "wigner-friend",
        "subsystems": [["system", 2], ["friend", 2], ["wigner", 2]],
        "initial": {"subsystem": "system", "state": "plus"},
        "stages": [
            {
                "object": "system",
                "instrument": "friend",
                "measured": {"diag": [0, 1]},
                "pointer_states": ["basis:0", "basis:1"],
                "ready": "basis:0",
                "kind": "ideal",
            },
            {
                "object": "friend",
                "instrument": "wigner",
                "measured": "previous-pointer",
                "pointer_states": ["basis:0", "basis:1"],
                "ready": "basis:0",
                "kind": "ideal",
            },
        ],
        "analyses": ["improper_mixture", "condition_reports"],
    },
    "world-split": {
        "name": "world-split",
        "subsystems": [["object", 2], ["core", 2], ["record", 2]],
        "initial": {"subsystem": "object", "state": [[_SQ3, 0.0], [_SQ7, 0.0]]},
        "stages": [
            {
                "object": "object",
                "instrument": "core",
                "measured": {"diag": [0, 1]},
                "pointer_states": ["basis:0", "basis:1"],
                "ready": "basis:0",
                "kind": "ideal",
            },
            {
                "object": "core",
                "instrument": "record",
                "measured": "previous-pointer",
                "pointer_states": ["basis:0", "basis:1"],
                "ready": "basis:0",
                "kind": "ideal",
            },
        ],
        "analyses": [{"kind": "world_branches", "pointer_stage": 0}],
    },
    "ensemble-update": {
        "name": "ensemble-update",
        "subsystems": [["system", 2], ["meter", 2]],
        "initial": {"subsystem": "system", "state": [[_SQ3, 0.0], [_SQ7, 0.0]]},
        "stages": [
            {
                "object": "system",
                "instrument": "meter",
                "measured": {"diag": [0, 1]},
                "pointer_states": ["basis:0", "basis:1"],
                "ready": "basis:0",
                "kind": "ideal",
            }
        ],
        "analyses": [
            {
                "kind": "ensemble_update",
                "projector": {"subsystem": "meter", "state": [[0.8, 0.0], [0.6, 0.0]]},
                "samples": 100000,
            }
        ],
    },
}


def builtin_names() -> tuple[str, ...]:
    return tuple(BUILTIN_DOCUMENTS)


def builtin_document(name: str) -> dict:
    if name not in BUILTIN_DOCUMENTS:
        raise ScenarioError(E_UNKNOWN_BUILTIN, "$", f"no builtin scenario named {name!r}")
    return json.loads(json.dumps(BUILTIN_DOCUMENTS[name]))


def load_builtin(name: str) -> Scenario:
    return scenario_from_document(builtin_document(name))


# ---------------------------------------------------------------------------
# Execution and reporting.


# Trials per condition of ``condition_reports`` when the analysis sets none.
CONDITION_TRIALS = 20


@dataclass(frozen=True)
class RunOptions:
    seed: int = 0
    tolerance: float = 1e-9
    dump_states: bool = False


@dataclass(frozen=True)
class CheckLine:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


@dataclass(frozen=True)
class ReportSection:
    title: str
    columns: tuple[str, ...] = ()
    rows: tuple[tuple[str, ...], ...] = ()
    checks: tuple[CheckLine, ...] = ()
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class RunReport:
    scenario: str
    seed: int
    tolerance: float
    sections: tuple[ReportSection, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for s in self.sections for c in s.checks)

    def to_tree(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "sections": [
                {
                    "title": s.title,
                    "columns": list(s.columns),
                    "rows": [list(r) for r in s.rows],
                    "checks": [
                        {
                            "name": c.name,
                            "value": c.value,
                            "tolerance": c.tolerance,
                            "passed": c.passed,
                        }
                        for c in s.checks
                    ],
                    "notes": list(s.notes),
                }
                for s in self.sections
            ],
        }

    def render(self, fmt: str = "text") -> str:
        if fmt == "json":
            return json.dumps(self.to_tree(), indent=2, sort_keys=True) + "\n"
        if fmt == "tsv":
            lines = [f"scenario\t{self.scenario}", f"seed\t{self.seed}"]
            for s in self.sections:
                lines.append(f"section\t{s.title}")
                if s.columns:
                    lines.append("\t".join(("col",) + s.columns))
                for r in s.rows:
                    lines.append("\t".join(("row",) + r))
                for c in s.checks:
                    lines.append(
                        f"check\t{c.name}\t{c.value:.6e}\t{c.tolerance:.1e}\t"
                        f"{'PASS' if c.passed else 'FAIL'}"
                    )
                for note in s.notes:
                    lines.append(f"note\t{note}")
            lines.append(f"result\t{'PASS' if self.passed else 'FAIL'}")
            return "\n".join(lines) + "\n"
        if fmt != "text":
            raise ValueError(f"unknown format {fmt!r}")
        lines = [f"scenario: {self.scenario}   seed: {self.seed}"]
        for s in self.sections:
            lines.append("")
            lines.append(s.title)
            lines.append("-" * len(s.title))
            if s.rows:
                widths = [
                    max(len(s.columns[i]) if i < len(s.columns) else 0, *(len(r[i]) for r in s.rows))
                    for i in range(len(s.rows[0]))
                ]
                if s.columns:
                    lines.append("  ".join(c.ljust(w) for c, w in zip(s.columns, widths)))
                for r in s.rows:
                    lines.append("  ".join(x.ljust(w) for x, w in zip(r, widths)))
            for c in s.checks:
                lines.append(
                    f"check {c.name}: {c.value:.6e} (tol {c.tolerance:.1e}) "
                    f"{'PASS' if c.passed else 'FAIL'}"
                )
            lines.extend(s.notes)
        lines.append("")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _fmt_weight(w: float) -> str:
    return f"{w:.10f}"


def _dominant_ket(state: StateVector) -> str:
    amps = state.amplitudes
    idx = int(np.argmax(np.abs(amps)))
    dims = state.layout.dims
    digits = []
    rem = idx
    for d in reversed(dims):
        digits.append(rem % d)
        rem //= d
    ket = ",".join(str(d) for d in reversed(digits))
    share = float(np.abs(amps[idx]) ** 2)
    return f"|{ket}> ({share:.4f})"


def build_premeasurements(scenario: Scenario, seed: int) -> list[Premeasurement]:
    """Construct the per-stage premeasurements."""
    pms: list[Premeasurement] = []
    for st in scenario.stages:
        measured = st.measured if st.measured is not None else pms[-1].pointer
        pm = build_ideal(measured, st.pointer_states, st.ready)
        if st.kind == "exact":
            spec = st.dressings or DressingSpec("random")
            if spec.mode == "random":
                dseed = spec.seed if spec.seed is not None else seed * 7_919 + st.index
                rng = np.random.default_rng(dseed)
                dressings = [
                    (
                        random_unitary(pm.object_dim, rng),
                        random_range_unitary(pm.pointer.branches[pm.mapping[k]].basis, rng),
                    )
                    for k in range(pm.measured.branch_count)
                ]
            else:
                dressings = list(spec.pairs)
            pm = build_exact(pm, dressings)
        pms.append(pm)
    return pms


def run_chain(
    scenario: Scenario, pms: list[Premeasurement]
) -> list[StateVector]:
    """Evolve the initial state through every stage; returns per-stage states."""
    states: list[StateVector] = []
    state = scenario.initial
    for i, pm in enumerate(pms):
        try:
            if i == 0:
                state = evolve(pm, state)
            else:
                state = extend_chain(state, pm, measured_source=pms[i - 1].pointer)
        except ValueError as exc:
            raise type(exc)(f"stage {i}: {exc}") from exc
        states.append(state)
    return states


def _branch_rows(bd: BranchDecomposition, pointer: SpectralObservable):
    rows = []
    for b in bd.branches:
        eig = pointer.branches[b.index].eigenvalue
        summary = (
            _dominant_ket(b.component)
            if isinstance(b.component, StateVector)
            else f"mixed dim={b.component.layout.dim}"
        )
        rows.append((str(b.index), f"{eig:g}", _fmt_weight(b.weight), summary))
    rows.append(("dropped", "-", _fmt_weight(bd.dropped_weight), ""))
    return tuple(rows)


def _weight_sum_check(bd: BranchDecomposition, tol: float) -> CheckLine:
    total = sum(bd.weights) + bd.dropped_weight
    return CheckLine("weight_table_sum", abs(total - 1.0), tol)


def _analysis_branches(params, scenario, pms, states, options) -> ReportSection:
    idx = params.get("pointer_stage", len(pms) - 1)
    bd = branch_decomposition(states[-1], pms[idx].pointer)
    return ReportSection(
        title=f"branches (pointer of stage {idx})",
        columns=("branch", "eigenvalue", "weight", "component"),
        rows=_branch_rows(bd, pms[idx].pointer),
        checks=(_weight_sum_check(bd, options.tolerance),),
    )


def _analysis_improper(params, scenario, pms, states, options) -> ReportSection:
    idx = params.get("stage", len(pms) - 1)
    subject = pms[idx].instrument_label
    final = states[-1]
    d = pms[idx].pointer.decomposition()
    bd = improper_mixture(final, d)
    reduced = partial_trace(final, {subject})
    resum = np.hstack([math.sqrt(b.weight) * b.component.factor for b in bd.branches])
    resid = float(np.linalg.norm(factor_difference(resum, reduced.factor)))
    checks = [
        _weight_sum_check(bd, options.tolerance),
        CheckLine("resummation_residual", resid, options.tolerance),
        CheckLine("full_state_purity_deficit", abs(purity(final) - 1.0), options.tolerance),
    ]
    notes = []
    if idx >= 1:
        prev = pms[idx - 1]
        offdiag = offdiagonal_block_norm(reduced, prev.pointer.decomposition())
        checks.append(CheckLine("offdiagonal_pointer_blocks", offdiag, options.tolerance))
        notes.append(
            f"reduced state on {'+'.join(reduced.layout.labels)} decoheres over "
            f"stage-{idx - 1} pointer sectors while the full state stays pure"
        )
    rows = tuple(
        (str(b.index), _fmt_weight(b.weight), f"mixed dim={b.component.layout.dim}")
        for b in bd.branches
    ) + (("dropped", _fmt_weight(bd.dropped_weight), ""),)
    return ReportSection(
        title=f"improper mixture (subject {subject!r})",
        columns=("branch", "weight", "component"),
        rows=rows,
        checks=tuple(checks),
        notes=tuple(notes),
    )


def _analysis_world(params, scenario, pms, states, options) -> ReportSection:
    idx = params.get("pointer_stage", 0)
    bd = world_branches(states[-1], pms[idx].pointer)
    rows = tuple(
        (str(b.index), _fmt_weight(b.weight), f"state on {'+'.join(b.component.layout.labels)}")
        for b in bd.branches
    ) + (("dropped", _fmt_weight(bd.dropped_weight), ""),)
    notes = []
    for i, a in enumerate(bd.branches):
        for b in bd.branches[i + 1 :]:
            dist = trace_distance(a.component, b.component)
            notes.append(
                f"trace distance between branches {a.index} and {b.index}: {dist:.6f}"
            )
    return ReportSection(
        title=f"world branches (pointer of stage {idx})",
        columns=("branch", "weight", "component"),
        rows=rows,
        checks=(_weight_sum_check(bd, options.tolerance),),
        notes=tuple(notes),
    )


def _analysis_ensemble(params, scenario, pms, states, options) -> ReportSection:
    src = params.get("source_stage", len(pms) - 1)
    final = states[-1]
    bd = branch_decomposition(final, pms[src].pointer)
    ens = proper_mixture(bd)
    pdoc = params.get("projector")
    if pdoc is None:
        subject = pms[-1].instrument_label
        vec = _parse_amplitudes("plus", final.layout.dim_of(subject), "$.analysis.projector")
        event = vec[:, None]
    else:
        subject = str(pdoc.get("subsystem", pms[-1].instrument_label))
        if subject not in final.layout.labels:
            raise ScenarioError(
                E_UNKNOWN_LABEL, "$.analysis.projector", f"subsystem {subject!r} not in layout"
            )
        if "branch" in pdoc:
            stage, branch = pdoc.get("stage", src), pdoc["branch"]
            if subject != pms[stage].instrument_label:
                raise ScenarioError(
                    E_BAD_VALUE,
                    "$.analysis.projector.subsystem",
                    f"a stage-{stage} pointer branch is an event on "
                    f"{pms[stage].instrument_label!r}, not on {subject!r}",
                )
            pointer = pms[stage].pointer
            if branch >= pointer.branch_count:
                raise ScenarioError(
                    E_BAD_VALUE,
                    "$.analysis.projector.branch",
                    f"stage {stage} pointer has {pointer.branch_count} branches, "
                    f"no branch {branch}",
                )
            event = pointer.branches[branch].basis
        else:
            vec = _parse_amplitudes(
                _require(pdoc, "state", "$.analysis.projector"),
                final.layout.dim_of(subject),
                "$.analysis.projector.state",
            )
            event = vec[:, None]
    result = ensemble_update(ens, event, subject)
    samples = int(params.get("samples", 0))
    columns = ["member", "prior", "posterior"]
    checks = [
        CheckLine("posterior_weight_sum", abs(sum(result.weights) - 1.0), options.tolerance)
    ]
    empirical: dict[int, tuple[float, float]] = {}
    if samples > 0:
        mc = monte_carlo_update(ens, event, subject, samples, seed=options.seed * 104_729 + 7)
        total_accepted = sum(mc.accepted_counts)
        columns += ["empirical", "deviation", "bound(3se)"]
        worst_ratio = 0.0
        for m in result.members:
            w_hat = mc.accepted_counts[m.index] / total_accepted
            se = math.sqrt(max(m.weight * (1 - m.weight), 1e-300) / total_accepted)
            empirical[m.index] = (w_hat, 3 * se)
            worst_ratio = max(worst_ratio, abs(w_hat - m.weight) / (3 * se))
        checks.append(CheckLine("monte_carlo_3se_ratio", worst_ratio, 1.0))
    rows = []
    for m in result.members:
        row = [str(m.index), _fmt_weight(ens.weights[m.index]), _fmt_weight(m.weight)]
        if samples > 0:
            w_hat, bound = empirical[m.index]
            row += [_fmt_weight(w_hat), f"{abs(w_hat - m.weight):.6e}", f"{bound:.6e}"]
        rows.append(tuple(row))
    notes = (
        f"occurrence probability: {result.occurrence_probability:.10f}",
        f"aggregate state on {'+'.join(result.aggregate.layout.labels)}",
    )
    return ReportSection(
        title=f"ensemble update (event on {subject!r})",
        columns=tuple(columns),
        rows=tuple(rows),
        checks=tuple(checks),
        notes=notes,
    )


def _analysis_conditions(params, scenario, pms, states, options) -> ReportSection:
    trials = int(params.get("trials", CONDITION_TRIALS))
    rows = []
    checks = []
    for i, pm in enumerate(pms):
        for rep in check_conditions(pm, trials, seed=options.seed * 31 + i):
            rows.append(
                (
                    str(i),
                    rep.condition,
                    str(rep.samples),
                    f"{rep.max_residual:.6e}",
                    "PASS" if rep.passed else "FAIL",
                )
            )
            checks.append(
                CheckLine(f"stage{i}_{rep.condition}", rep.max_residual, rep.tolerance)
            )
    return ReportSection(
        title="premeasurement condition reports",
        columns=("stage", "condition", "samples", "max_residual", "status"),
        rows=tuple(rows),
        checks=tuple(checks),
    )


_ANALYSES = {
    "branches": _analysis_branches,
    "improper_mixture": _analysis_improper,
    "world_branches": _analysis_world,
    "ensemble_update": _analysis_ensemble,
    "condition_reports": _analysis_conditions,
}


def _dump_section(states: list[StateVector]) -> ReportSection:
    rows = []
    for i, s in enumerate(states):
        for j, z in enumerate(s.amplitudes):
            if abs(z) > 1e-14:
                rows.append((str(i), str(j), f"{z.real:+.10f}{z.imag:+.10f}j"))
    return ReportSection(
        title="stage states (nonzero amplitudes)",
        columns=("stage", "index", "amplitude"),
        rows=tuple(rows),
    )


def run(scenario: Scenario, options: RunOptions = RunOptions()) -> RunReport:
    """Execute a scenario: build premeasurements, evolve the chain, run analyses."""
    pms = build_premeasurements(scenario, options.seed)
    states = run_chain(scenario, pms)
    sections = []
    stage_rows = tuple(
        (
            str(i),
            pm.object_label,
            pm.instrument_label,
            scenario.stages[i].kind,
            str(pm.measured.branch_count),
        )
        for i, pm in enumerate(pms)
    )
    sections.append(
        ReportSection(
            title="chain",
            columns=("stage", "object", "instrument", "kind", "branches"),
            rows=stage_rows,
            notes=(f"final state on {'+'.join(states[-1].layout.labels)}",),
        )
    )
    for spec in scenario.analyses:
        sections.append(_ANALYSES[spec.kind](spec.params, scenario, pms, states, options))
    if options.dump_states:
        sections.append(_dump_section(states))
    return RunReport(scenario.name, options.seed, options.tolerance, tuple(sections))
