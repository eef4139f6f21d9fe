"""Numerical tolerances used across the library.

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
* ``herm`` and ``psd`` apply only to matrices given densely; a factored state
  is Hermitian and PSD by construction.  The Cholesky test's backward error is
  about D u ||rho||_2 <= D u: 2e-12 at D = 2**14, the largest dense state
  that fits in 4 GiB.
* ``orth``, ``unitary``, ``eig_merge`` and ``condition`` bound the operators
  of one subsystem or one premeasurement and scale, where they scale, with
  that local dimension, not with D; ``weight`` is an absolute floor.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-10            # | ||v|| - 1 | and |tr(rho) - 1|
    herm: float = 1e-10            # ||M - M^dag||
    orth: float = 1e-10            # basis overlaps, projector algebra residuals
    psd: float = 1e-9              # floor lambda_min >= -psd, tested as a Cholesky
                                   # factorization of rho + psd*I (eigvalsh on failure)
    unitary: float = 1e-10         # ||U^dag U - I||
    reconstruction: float = 1e-10  # resummation residuals
    eig_merge: float = 1e-8        # eigenvalue clustering width
    weight: float = 1e-12          # smallest branch weight kept
    condition: float = 1e-9        # pass threshold for premeasurement checks


DEFAULT = Tolerances()
