"""Numerical tolerances used across the library.

Residuals are 2-norms for vectors and Frobenius norms for matrices unless a
docstring says otherwise.  Defaults leave double precision plenty of headroom
at the target dimensions (total dimension up to ~2**10).
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
