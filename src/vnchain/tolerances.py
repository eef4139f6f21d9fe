"""Numerical tolerances used across the library.

``DEFAULT`` is the only place the library reads a tolerance: no function or
constructor takes one.  ``Tolerances`` documents each value and lets a
caller read it; building another instance changes nothing the library does.

Residuals are 2-norms for vectors and Frobenius norms for matrices unless a
docstring says otherwise.

Sizing in the total dimension D (u = 1.1e-16 is the unit roundoff).  The
defaults were set for D <= 2**10 and hold to D = 2**20, a 20-qubit chain,
where every state the library forms is a vector or a factor M of a few
columns with rho = M M^dag:

* ``norm`` bounds | ||psi|| - 1 | and |tr(rho) - 1|, where the trace of a
  factored state is ||M||_F^2.  Both are sums of D terms, whose rounding is
  at most about D u and typically sqrt(D) u: 1e-13 at D = 2**20 (observed
  <= 5e-15 on 20-qubit chains of random states).
* ``reconstruction`` bounds weight sums, which add a few terms, not D.  The
  ensemble-update cross-check compares the member sum with the aggregate
  through a thin QR of their stacked factors (``hilbert.factor_difference``);
  its residual does not grow with D (observed 2e-16 to 1.3e-15 from D = 2**8
  to 2**20), so the D scale of its bound, ``reconstruction * D``, stops at
  2**10: 1e-7 at D = 2**20 instead of 1e-4, unchanged at D <= 2**10.
* ``herm`` and ``psd`` apply only to matrices given densely; a state held as
  its factor is Hermitian and PSD by construction.  The eigensolver's error
  in lambda_min is about D u ||rho||_2 <= D u: 2e-12 at D = 2**14, the
  largest dense state that fits in 4 GiB.
* ``orth``, ``unitary``, ``eig_merge`` and ``condition`` bound the operators
  of one subsystem or one premeasurement and scale, where they scale, with
  that local dimension, not with D; ``weight`` is an absolute floor.
* ``zero_norm``, ``completion``, ``pointer_match``, ``sharp_sample``,
  ``observable_match`` and ``unit_vector`` bound vectors and operators of
  one subsystem, so they do not scale with D either.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """The library's thresholds, one field per bound:

    - ``norm``: | ||v|| - 1 | and |tr(rho) - 1|.
    - ``herm``: ||M - M^dag|| of a matrix given densely.
    - ``orth``: basis overlaps and projector-algebra residuals, per dimension.
    - ``psd``: floor lambda_min >= -psd of a caller's dense density matrix,
      read off the spectrum that ``DensityOperator.from_matrix`` factors it
      with; a state held as its factor M is PSD by construction.
    - ``unitary``: ||U^dag U - I||, per dimension.
    - ``reconstruction``: weight sums and resummation residuals.
    - ``eig_merge``: width within which eigenvalues form one branch.
    - ``weight``: smallest branch, member or event weight kept.
    - ``condition``: pass threshold of the premeasurement condition checks.
    - ``zero_norm``: smallest norm ``StateVector.normalize`` divides by.
    - ``completion``: smallest residual norm of a candidate that
      ``complete_orthonormal`` keeps as a new direction.
    - ``pointer_match``: ||F v - v|| below which a pointer state v lies in the
      range of the pointer projector F (``build_ideal`` with a given pointer).
    - ``sharp_sample``: smallest norm of a projected random vector kept as a
      sharp sample of an eigenspace.
    - ``observable_match``: eigenvalue distance, and projector distance per
      dimension, within which a chain link measures the previous pointer.
    - ``unit_vector``: | ||phi|| - 1 | for a relative state's subject vector.
    """

    norm: float = 1e-10
    herm: float = 1e-10
    orth: float = 1e-10
    psd: float = 1e-9
    unitary: float = 1e-10
    reconstruction: float = 1e-10
    eig_merge: float = 1e-8
    weight: float = 1e-12
    condition: float = 1e-9
    zero_norm: float = 1e-150
    completion: float = 1e-7
    pointer_match: float = 1e-8
    sharp_sample: float = 1e-8
    observable_match: float = 1e-8
    unit_vector: float = 1e-8


DEFAULT = Tolerances()
