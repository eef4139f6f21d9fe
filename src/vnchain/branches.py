"""Weighted branch bookkeeping for complete-measurement decompositions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .hilbert import DensityOperator, StateVector
from .tolerances import DEFAULT

Component = Union[StateVector, DensityOperator]


@dataclass(frozen=True)
class Branch:
    index: int
    weight: float
    component: Component


@dataclass(frozen=True)
class BranchDecomposition:
    """Labeled (weight, component) list with dropped-weight accounting.

    Branches below the weight threshold are not stored; their total weight is
    recorded in ``dropped_weight`` so that kept + dropped always sums to 1.
    """

    pointer_subsystem: str
    branches: tuple[Branch, ...]
    dropped_weight: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        for b in self.branches:
            if not b.weight > 0.0:
                raise ValueError(f"branch {b.index} has non-positive weight {b.weight}")
            if isinstance(b.component, StateVector) and not b.component.normalized:
                raise ValueError(f"branch {b.index} component is not normalized")
        total = sum(b.weight for b in self.branches) + self.dropped_weight
        if abs(total - 1.0) > DEFAULT.reconstruction:
            raise ValueError(f"weights plus dropped weight sum to {total!r}, not 1")

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(b.weight for b in self.branches)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(b.index for b in self.branches)

    def branch(self, index: int) -> Branch:
        for b in self.branches:
            if b.index == index:
                return b
        raise KeyError(f"no kept branch with index {index}")
