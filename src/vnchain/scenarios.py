"""Declarative chain scenarios: parse, execute, report.

Scenario documents are JSON trees.  Complex numbers are written as
``[re, im]`` pairs; states may be amplitude lists or named presets
(``plus``, ``minus``, ``basis:k``, ``bell``); observables may be given as
``{"pauli": "z"}``, ``{"diag": [...]}``, an explicit ``{"matrix": ...}``,
or the string ``"previous-pointer"`` for chain links that read the
preceding stage's result.  A ``diag`` observable is given in its
eigenbasis, so it takes its exact spectral form with no eigensolver; a
``pauli`` or ``matrix`` one goes through ``observable_from_matrix``.

The parser builds each distinct value of a document once.  It keeps one
table per document (``_PresetTable``) of the presets it has resolved,
keyed by dimension: the frozen unit vector of each state preset and the
first ``ready`` or ``initial`` state made of it, and the checked
``SubsystemBasis`` of each list of preset pointer states, whose rows stack
those unit vectors, so a pointer list and a ``ready`` of one preset share
one parse.  A later stage that repeats a list or a ``ready`` preset
adopts the first stage's basis or state under its own label, so a copy
chain makes one pointer Gram product and one ready-state norm check.  A
value enters the table only once it is built, so a bad spec fails at each
occurrence with the error it would give alone.  The table lives for one
``scenario_from_document`` call.

The parser also builds each stage's checked ideal link as it parses the
stage, from the previous stage's link (``premeasurement._chained_ideal``):
``"previous-pointer"`` is that link's pointer object, an explicit
``measured`` must match it (``chains.observables_match``) or is refused as
``[chain-order]`` at ``$.stages[k].measured``, after the stage's other
checks, and a stage that repeats that link adopts it under its own labels.
``run`` (``build_premeasurements``) only dresses the links of ``exact``
stages.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .branches import BranchDecomposition
from .chains import (
    _link_position,
    _three_se_ratio,
    ensemble_update,
    improper_mixture,
    monte_carlo_update,
    observables_match,
    offdiagonal_block_norm,
    proper_mixture,
    world_branches,
)
from .hilbert import (
    StateVector,
    SubsystemBasis,
    SubsystemLayout,
    _check_state_norm,
    _fro,
    _refuse_non_finite,
    _worst,
    factor_difference,
    partial_trace,
    purity,
    trace_distance,
)
from .observables import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ObservableBranch,
    SpectralObservable,
    _merged_spectrum,
    observable_from_matrix,
)
from .premeasurement import (
    Premeasurement,
    _chained_ideal,
    _check_object_state,
    _linked,
    branch_decomposition,
    build_exact,
    check_conditions,
    random_dressings,
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
        self.message = message
        super().__init__(f"[{code}] at {location}: {message}")


@dataclass(frozen=True)
class DressingSpec:
    mode: str  # "random" or "explicit"
    seed: int | None = None
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...] = ()


@dataclass(frozen=True)
class StageSpec:
    index: int
    link: Premeasurement  # the checked ideal link; ``run`` dresses an exact one
    kind: str  # "ideal" or "exact"
    dressings: DressingSpec | None = None


@dataclass(frozen=True, eq=False)
class EventSpec:
    """An ``ensemble_update`` event on ``subject``, resolved by the parser to
    what ``ensemble_update`` applies: the projector onto a unit vector, as
    its (d, 1) block, or a branch of a stage's pointer."""

    subject: str
    event: np.ndarray | ObservableBranch


@dataclass(frozen=True)
class AnalysisSpec:
    kind: str
    params: dict = field(default_factory=dict)
    event: EventSpec | None = None  # set by the parser for ``ensemble_update``


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


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_complex(value: Any, location: str) -> complex:
    if _is_number(value):
        parts = (value,)
    elif isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        parts = value
    else:
        raise ScenarioError(E_MALFORMED_STATE, location, f"expected [re, im], got {value!r}")
    try:
        z = complex(*parts)
    except OverflowError:
        raise ScenarioError(
            E_MALFORMED_STATE, location, "number out of floating-point range"
        ) from None
    if not cmath.isfinite(z):
        raise ScenarioError(E_MALFORMED_STATE, location, f"non-finite number {value!r}")
    return z


def _parse_amplitudes(spec: Any, dim: int, location: str) -> np.ndarray:
    """The unit vector of a state spec on a subsystem of dimension ``dim``:
    a preset or a list of amplitudes, normalized.  It is fresh, and frozen,
    so that a state adopts it (``hilbert._owned``) instead of copying it."""
    if isinstance(spec, str):
        amps = np.zeros(dim, dtype=complex)
        if spec == "plus":
            if dim < 2:
                raise ScenarioError(E_DIMENSION, location, "'plus' needs dimension >= 2")
            amps[0] = amps[1] = 1 / math.sqrt(2)
        elif spec == "minus":
            if dim < 2:
                raise ScenarioError(E_DIMENSION, location, "'minus' needs dimension >= 2")
            amps[0], amps[1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        elif spec.startswith("basis:"):
            try:
                k = int(spec.split(":", 1)[1])
            except ValueError:
                raise ScenarioError(E_MALFORMED_STATE, location, f"bad basis index in {spec!r}")
            if not 0 <= k < dim:
                raise ScenarioError(E_DIMENSION, location, f"basis index {k} out of range for dim {dim}")
            amps[k] = 1.0
        elif spec == "bell":
            if dim != 4:
                raise ScenarioError(E_DIMENSION, location, "'bell' needs dimension 4")
            amps[0] = amps[3] = 1 / math.sqrt(2)
        else:
            raise ScenarioError(E_MALFORMED_STATE, location, f"unknown state preset {spec!r}")
    elif isinstance(spec, list):
        if len(spec) != dim:
            raise ScenarioError(
                E_DIMENSION, location, f"{len(spec)} amplitudes for dimension {dim}"
            )
        amps = np.array([_parse_complex(x, location) for x in spec])
        with np.errstate(over="ignore"):  # an overflowing norm is reported below
            n = _fro(amps)
        if not math.isfinite(n):
            raise ScenarioError(E_MALFORMED_STATE, location, "state norm overflows")
        if n < 1e-12:
            raise ScenarioError(E_MALFORMED_STATE, location, "state has zero norm")
        amps = amps / n
    else:
        raise ScenarioError(E_MALFORMED_STATE, location, f"cannot read state spec {spec!r}")
    amps.setflags(write=False)
    return amps


class _PresetTable:
    """The presets one document has resolved, each once: the unit vector of
    each (dimension, preset) state spec and the first one-subsystem
    ``StateVector`` made of it, and the checked ``SubsystemBasis`` of each
    (dimension, presets) list of pointer states, which stacks those unit
    vectors.  A value is recorded only once it is built, so a bad spec fails
    at each occurrence as it would alone; a spec given as amplitudes is
    parsed where it stands."""

    def __init__(self):
        self.states: dict[tuple[int, str], np.ndarray] = {}
        self.vectors: dict[tuple[int, str], StateVector] = {}
        self.bases: dict[tuple[int, tuple[str, ...]], SubsystemBasis] = {}

    def state(self, spec: Any, dim: int, location: str) -> np.ndarray:
        """``_parse_amplitudes`` of ``spec``, resolved once per preset."""
        if not isinstance(spec, str):
            return _parse_amplitudes(spec, dim, location)
        amps = self.states.get((dim, spec))
        if amps is None:
            amps = self.states[dim, spec] = _parse_amplitudes(spec, dim, location)
        return amps

    def vector(self, spec: Any, label: str, dim: int, location: str) -> StateVector:
        """The state of ``spec`` on ``label`` alone, a ``ready`` or the
        ``initial`` state.  Each later state of the same preset on the same
        dimension adopts the first one's under its own label, with no
        second norm check."""
        lay = SubsystemLayout(((label, dim),))
        if not isinstance(spec, str):
            return StateVector(lay, _parse_amplitudes(spec, dim, location))
        known = self.vectors.get((dim, spec))
        if known is not None:
            return StateVector(lay, known)
        state = self.vectors[dim, spec] = StateVector(lay, self.state(spec, dim, location))
        return state

    def basis(self, specs: list, label: str, dim: int, location: str) -> SubsystemBasis:
        """The basis on ``label`` of the pointer states ``specs``: their
        vectors (``state``) stacked into the frozen (n, dim) rows that it
        adopts.  Each later list of the same presets on the same dimension
        adopts that basis under its own label, with no second Gram check."""
        key = (dim, tuple(specs)) if all(isinstance(s, str) for s in specs) else None
        known = self.bases.get(key)
        if known is not None:
            return SubsystemBasis(label, known)
        rows = np.array([self.state(s, dim, f"{location}[{i}]") for i, s in enumerate(specs)])
        rows.setflags(write=False)
        try:
            basis = SubsystemBasis(label, rows)
        except ValueError as exc:
            raise ScenarioError(E_MALFORMED_STATE, location, str(exc))
        if key is not None:
            self.bases[key] = basis
        return basis


def _parse_matrix(spec: Any, dim: int, location: str) -> np.ndarray:
    if not isinstance(spec, list) or len(spec) != dim:
        raise ScenarioError(E_DIMENSION, location, f"expected a {dim}x{dim} matrix")
    rows = []
    for i, row in enumerate(spec):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioError(E_DIMENSION, f"{location}[{i}]", f"expected {dim} entries")
        rows.append([_parse_complex(x, f"{location}[{i}]") for x in row])
    return np.array(rows, dtype=complex)


def _parse_observable(spec: Any, subsystem: str, dim: int, location: str) -> SpectralObservable:
    """The observable of a ``measured`` spec other than ``"previous-pointer"``.

    ``pauli`` and ``matrix`` observables are diagonalized by
    ``observable_from_matrix``.  A ``diag`` one takes its exact spectral
    form, with no eigensolver and no Hermiticity check (a real diagonal is
    Hermitian): the stable-sorted entries are its eigenvalues, merged into
    branches by the rule ``observable_from_matrix`` uses
    (``_merged_spectrum``), and the matching unit vectors, as the rows of a
    ``SubsystemBasis``, are its columns, Gram-checked once by that basis.
    """
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
            if not all(map(_is_number, vals)):
                raise ScenarioError(E_BAD_OBSERVABLE, location, f"'diag' needs numbers, got {vals!r}")
            try:  # an int beyond the float range, or a NaN or infinite entry
                entries = np.array(vals, dtype=float)
                _refuse_non_finite(entries)
            except (OverflowError, ValueError) as exc:
                raise ScenarioError(E_BAD_OBSERVABLE, location, str(exc))
            # Row j of ``rows`` is the unit vector of the j-th smallest entry:
            # the observable's columns, which the basis adopts as they are.
            order = np.argsort(entries, kind="stable")
            means, runs = _merged_spectrum(entries[order].tolist())
            rows = np.eye(dim, dtype=complex)[order]
            rows.setflags(write=False)
            return SpectralObservable(SubsystemBasis(subsystem, rows), means, map(len, runs))
        if "matrix" in spec:
            try:
                mat = _parse_matrix(spec["matrix"], dim, f"{location}.matrix")
            except ScenarioError as exc:
                if exc.code != E_MALFORMED_STATE:
                    raise
                # a bad entry is the observable's fault, as in 'diag'
                raise ScenarioError(
                    E_BAD_OBSERVABLE, location, f"{exc.message} at {exc.location}"
                ) from None
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


def _resolve_event(
    params: dict, dims: dict, stages: list, presets: _PresetTable, location: str
) -> EventSpec:
    """The event of an ``ensemble_update`` analysis whose ``projector`` is at
    ``location``, where every error is reported: by default the ``plus``
    state of the last instrument.  A subject must be in the final state; a
    branch subject must be the instrument of its stage, and the branch one
    of that stage's pointer, which an exact stage's dressed link keeps.
    ``dims`` maps each label to its dimension, and state specs resolve
    through the document's ``presets``."""
    last = stages[-1].link.instrument_label
    pdoc = params.get("projector")
    if pdoc is None:
        return EventSpec(last, presets.state("plus", dims[last], location)[:, None])
    if not isinstance(pdoc, dict):
        raise ScenarioError(E_BAD_VALUE, location, f"expected an object, got {pdoc!r}")
    if "stage" in pdoc:
        _check_stage(pdoc["stage"], len(stages), f"{location}.stage")
    if "branch" in pdoc:
        _check_count(pdoc["branch"], 0, f"{location}.branch")
    subject = str(pdoc.get("subsystem", last))
    if subject not in {stages[0].link.object_label, *(st.link.instrument_label for st in stages)}:
        raise ScenarioError(E_UNKNOWN_LABEL, location, f"subsystem {subject!r} not in layout")
    if "branch" not in pdoc:
        spec = _require(pdoc, "state", location)
        return EventSpec(subject, presets.state(spec, dims[subject], f"{location}.state")[:, None])
    stage, branch = pdoc.get("stage", params.get("source_stage", len(stages) - 1)), pdoc["branch"]
    pointer = stages[stage].link.pointer
    if subject != pointer.subsystem:
        raise ScenarioError(
            E_BAD_VALUE,
            f"{location}.subsystem",
            f"a stage-{stage} pointer branch is an event on "
            f"{pointer.subsystem!r}, not on {subject!r}",
        )
    if branch >= pointer.branch_count:
        raise ScenarioError(
            E_BAD_VALUE,
            f"{location}.branch",
            f"stage {stage} pointer has {pointer.branch_count} branches, no branch {branch}",
        )
    return EventSpec(subject, pointer.branches[branch])


def _physical_memory() -> int | None:
    """Bytes of physical memory, ``os.sysconf`` pages times page size; None
    where the system does not report them."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


def scenario_from_document(doc: dict) -> Scenario:
    """Validate a parsed JSON tree into a Scenario.

    A document whose total dimension D, the product of its subsystems'
    dimensions, gives one complex state vector (16 D bytes) larger than
    physical memory is refused at ``$.subsystems`` before any state is made.
    """
    if not isinstance(doc, dict):
        raise ScenarioError(E_BAD_VALUE, "$", "document must be an object")
    name = str(doc.get("name", "unnamed"))
    subs = _require(doc, "subsystems", "$")
    if not isinstance(subs, list) or not subs:
        raise ScenarioError(E_BAD_VALUE, "$.subsystems", "expected a non-empty list")
    dims: dict[str, int] = {}  # each dimension read once here, then by label
    for i, entry in enumerate(subs):
        loc = f"$.subsystems[{i}]"
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ScenarioError(E_BAD_VALUE, loc, "expected [label, dimension]")
        label, dim = str(entry[0]), entry[1]
        if label in dims:
            raise ScenarioError(E_DUPLICATE_LABEL, loc, f"label {label!r} repeated")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ScenarioError(E_DIMENSION, loc, f"dimension must be a positive int, got {dim!r}")
        dims[label] = dim
    lay = SubsystemLayout(tuple(dims.items()))
    memory = _physical_memory()
    if memory is not None and 16 * lay.dim > memory:
        raise ScenarioError(
            E_DIMENSION,
            "$.subsystems",
            f"one state vector of total dimension {lay.dim} takes {16 * lay.dim} bytes, "
            f"more than the {memory} bytes of physical memory",
        )

    stages_doc = _require(doc, "stages", "$")
    if not isinstance(stages_doc, list):
        raise ScenarioError(E_BAD_VALUE, "$.stages", "expected a list")
    if not stages_doc:
        raise ScenarioError(E_EMPTY_STAGES, "$.stages", "scenario needs at least one stage")

    presets = _PresetTable()
    stages: list[StageSpec] = []
    previous = None  # the previous stage's ideal link
    in_chain = {lay.labels[0]}  # the first object and every instrument so far
    for t, sdoc in enumerate(stages_doc):
        loc = f"$.stages[{t}]"
        if not isinstance(sdoc, dict):
            raise ScenarioError(E_BAD_VALUE, loc, "stage must be an object")
        obj = str(_require(sdoc, "object", loc))
        instr = str(_require(sdoc, "instrument", loc))
        for label in (obj, instr):
            if label not in dims:
                raise ScenarioError(E_UNKNOWN_LABEL, loc, f"subsystem {label!r} not declared")
        if t == 0:
            if obj != lay.labels[0]:
                raise ScenarioError(
                    E_CHAIN_ORDER, loc, f"first stage must measure {lay.labels[0]!r}"
                )
        elif obj != previous.instrument_label:
            raise ScenarioError(
                E_CHAIN_ORDER,
                loc,
                f"stage {t} object {obj!r} must be stage {t - 1}'s instrument "
                f"{previous.instrument_label!r}",
            )
        if instr in in_chain:
            raise ScenarioError(
                E_CHAIN_ORDER, loc, f"stage {t} instrument {instr!r} is already in the chain"
            )
        in_chain.add(instr)
        d_obj, d_instr = dims[obj], dims[instr]

        mdoc = _require(sdoc, "measured", loc)
        if mdoc != "previous-pointer":
            measured = _parse_observable(mdoc, obj, d_obj, f"{loc}.measured")
        elif previous is None:
            raise ScenarioError(
                E_CHAIN_ORDER, f"{loc}.measured", "first stage cannot read a previous pointer"
            )
        else:
            measured = previous.pointer

        pstates_doc = _require(sdoc, "pointer_states", loc)
        if not isinstance(pstates_doc, list) or not pstates_doc:
            raise ScenarioError(E_BAD_VALUE, f"{loc}.pointer_states", "expected a non-empty list")
        pointer_states = presets.basis(pstates_doc, instr, d_instr, f"{loc}.pointer_states")
        n_states, n_branches = len(pointer_states.vectors), measured.branch_count
        if n_states != n_branches:
            raise ScenarioError(
                E_DIMENSION,
                f"{loc}.pointer_states",
                f"{n_states} pointer states for {n_branches} branches",
            )

        ready = presets.vector(_require(sdoc, "ready", loc), instr, d_instr, f"{loc}.ready")

        kind = str(sdoc.get("kind", "ideal"))
        dressings = None
        if kind == "exact":
            ddoc = sdoc.get("dressings", "random")
            if ddoc == "random":
                seed = sdoc.get("dressing_seed")
                if seed is not None:
                    _check_count(seed, 0, f"{loc}.dressing_seed")
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

        if (
            previous is not None
            and measured is not previous.pointer
            and not observables_match(previous.pointer, measured)
        ):
            raise ScenarioError(
                E_CHAIN_ORDER,
                f"{loc}.measured",
                f"stage {t} does not measure stage {t - 1}'s pointer observable",
            )
        previous = _chained_ideal(previous, measured, pointer_states, ready)
        stages.append(StageSpec(t, previous, kind, dressings))

    init_doc = _require(doc, "initial", "$")
    first = lay.labels[0]  # the first stage's object
    if isinstance(init_doc, dict):
        init_sub = str(init_doc.get("subsystem", first))
        init_spec = _require(init_doc, "state", "$.initial")
    else:
        init_sub, init_spec = first, init_doc
    if init_sub != first:
        raise ScenarioError(E_CHAIN_ORDER, "$.initial", f"initial state must live on {first!r}")
    initial = presets.vector(init_spec, init_sub, dims[init_sub], "$.initial.state")

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
        event = None
        if kind == "ensemble_update":
            if "samples" in params:
                _check_count(params["samples"], 0, f"{loc}.samples")
            event = _resolve_event(params, dims, stages, presets, f"{loc}.projector")
        analyses.append(AnalysisSpec(kind, params, event))

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


_json_str = json.encoder.encode_basestring_ascii
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value: Any, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a tree of dicts with
    string keys, lists, strings, numbers, bools and None, byte for byte.

    ``json.dumps`` with an indent runs its pure-Python encoder; this one keeps
    the string escaping in C (``encode_basestring_ascii``).  ``pad`` is the
    newline and indentation that precede ``value``'s closing bracket.
    """
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NONFINITE.get(text, text)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_str(v) if type(v) is str else _json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_json_str(k) + ": " + _json_text(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
            return _json_text(self.to_tree()) + "\n"
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
    """The per-stage premeasurements: each stage's checked ideal link, as the
    parser built it, with an ``exact`` stage's link dressed by
    ``build_exact``.  Its dressings are the stage's explicit pairs, or
    ``random_dressings`` drawn from ``default_rng`` of its ``dressing_seed``,
    or of ``seed * 7919 + index`` when it sets none.  A dressed link keeps
    its ideal link's pointer, which the next stage and the parsed events
    read."""
    pms: list[Premeasurement] = []
    for st in scenario.stages:
        pm = st.link
        if st.kind == "exact":
            spec = st.dressings or DressingSpec("random")
            if spec.mode == "random":
                dseed = spec.seed if spec.seed is not None else seed * 7_919 + st.index
                dressings = random_dressings(pm, np.random.default_rng(dseed))
            else:
                dressings = list(spec.pairs)
            pm = build_exact(pm, dressings)
        pms.append(pm)
    return pms


def _chain_states(
    scenario: Scenario, pms: list[Premeasurement], every_stage: bool
) -> list[StateVector]:
    """Evolve the initial state through every stage, over plain label and
    dimension lists.  Each link gets the checks of ``evolve`` (the first)
    or ``chains.extend_chain`` (the others), is applied by the one link
    kernel (``premeasurement._linked``), and has its amplitudes checked as
    a ``StateVector`` checks them.  Only the final state is wrapped in a
    layout and a ``StateVector``, or, with ``every_stage``, every stage's;
    each is the state ``evolve`` and then ``extend_chain`` give, bit for
    bit."""
    initial = scenario.initial
    labels, dims = list(initial.layout.labels), list(initial.layout.dims)
    amps = initial.amplitudes
    states: list[StateVector] = []
    last = len(pms) - 1
    for i, pm in enumerate(pms):
        try:
            if i == 0:
                _check_object_state(pm, initial)
                pos = 0
            else:
                pos = _link_position(labels, dims, pm, pms[i - 1].pointer)
            amps = _linked(pm, amps, dims, pos)
            labels.append(pm.instrument_label)
            dims.append(pm.instrument_dim)
            if every_stage or i == last:
                # a list: ``tuple(zip(...))`` would build its tuple by
                # resizing, which leaves one more tuple on the free list
                # of its size for each run
                lay = SubsystemLayout(list(zip(labels, dims)))
                states.append(StateVector(lay, amps, normalized=True))
            else:
                _check_state_norm(amps)
        except ValueError as exc:
            raise type(exc)(f"stage {i}: {exc}") from exc
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


def _analysis_branches(spec, pms, final, options) -> ReportSection:
    idx = spec.params.get("pointer_stage", len(pms) - 1)
    bd = branch_decomposition(final, pms[idx].pointer)
    return ReportSection(
        title=f"branches (pointer of stage {idx})",
        columns=("branch", "eigenvalue", "weight", "component"),
        rows=_branch_rows(bd, pms[idx].pointer),
        checks=(_weight_sum_check(bd, options.tolerance),),
    )


def _analysis_improper(spec, pms, final, options) -> ReportSection:
    idx = spec.params.get("stage", len(pms) - 1)
    subject = pms[idx].instrument_label
    d = pms[idx].pointer.decomposition()
    bd = improper_mixture(final, d)
    reduced = partial_trace(final, {subject})
    resum = np.hstack([math.sqrt(b.weight) * b.component.factor for b in bd.branches])
    resid = _fro(factor_difference(resum, reduced.factor))
    checks = [
        _weight_sum_check(bd, options.tolerance),
        CheckLine("resummation_residual", resid, options.tolerance),
        CheckLine("full_state_purity_deficit", abs(purity(final) - 1.0), options.tolerance),
    ]
    notes = []
    # The reduced state keeps the stage-(idx-1) sectors apart when stage idx
    # and the stage that reads its pointer are ideal: the object dressings
    # U_k of an exact link's terms U_k E_k need not.
    exact = [
        k
        for k in (idx, idx + 1)
        if k < len(pms) and any(u is not None for u, _ in pms[k].operators)
    ]
    if idx >= 1 and exact:
        notes.append(
            f"stage {exact[0]} is exact: its object dressings need not keep the "
            f"stage-{idx - 1} pointer sectors apart, so no decoherence check applies"
        )
    elif idx >= 1:
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


def _analysis_world(spec, pms, final, options) -> ReportSection:
    idx = spec.params.get("pointer_stage", 0)
    bd = world_branches(final, pms[idx].pointer)
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


def _analysis_ensemble(spec, pms, final, options) -> ReportSection:
    src = spec.params.get("source_stage", len(pms) - 1)
    bd = branch_decomposition(final, pms[src].pointer)
    ens = proper_mixture(bd)
    subject, event = spec.event.subject, spec.event.event
    result = ensemble_update(ens, event, subject)
    samples = int(spec.params.get("samples", 0))
    columns = ["member", "prior", "posterior"]
    checks = [
        CheckLine("posterior_weight_sum", abs(sum(result.weights) - 1.0), options.tolerance)
    ]
    if samples > 0:
        mc = monte_carlo_update(ens, event, subject, samples, seed=options.seed * 104_729 + 7)
        columns += ["empirical", "deviation", "bound(3se)"]
        worst_ratio, empirical = _three_se_ratio(result, mc)
        checks.append(CheckLine("monte_carlo_3se_ratio", worst_ratio, 1.0))
    rows = []
    for i, m in enumerate(result.members):
        row = [str(m.index), _fmt_weight(ens.weights[m.index]), _fmt_weight(m.weight)]
        if samples > 0:
            w_hat, bound = empirical[i]
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


def _analysis_conditions(spec, pms, final, options) -> ReportSection:
    trials = int(spec.params.get("trials", CONDITION_TRIALS))
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
    """Execute a scenario: build premeasurements, evolve the chain, run analyses.

    Every analysis is handed the final state alone, so the chain's
    intermediate states are formed only for ``dump_states``; otherwise one
    ``StateVector`` is made, of the final state.
    """
    pms = build_premeasurements(scenario, options.seed)
    states = _chain_states(scenario, pms, every_stage=options.dump_states)
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
        sections.append(_ANALYSES[spec.kind](spec, pms, states[-1], options))
    if options.dump_states:
        sections.append(_dump_section(states))
    return RunReport(scenario.name, options.seed, options.tolerance, tuple(sections))
