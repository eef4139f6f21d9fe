#!/usr/bin/env python3
"""Build a measurement unitary and watch the three defining conditions hold.

A premeasurement couples an object observable to an instrument pointer.  The
same unitary can be characterized three ways: sharp inputs give sharp pointer
readings (calibration), Born statistics transfer to the pointer (probability
reproduction), and each input component feeds exactly one output sector
(the dynamical condition).  Here we build one, dress it into a non-ideal
variant, and check all three numerically.
"""

import numpy as np

from vnchain import (
    SubsystemBasis,
    basis_state,
    build_exact,
    build_ideal,
    check_conditions,
    complete_unitary,
    evolve,
    layout,
    observable_from_matrix,
    StateVector,
)
from vnchain.premeasurement import random_dressings

# measure a qutrit observable with distinct eigenvalues 0, 1, 2
measured = observable_from_matrix(np.diag([0.0, 1.0, 2.0]), "atom")
print("measured observable branches:", measured.eigenvalues)

# the instrument starts "ready" and one orthonormal pointer state per outcome
eye = np.eye(3, dtype=complex)
pointer_states = SubsystemBasis("meter", (eye[:, 0], eye[:, 1], eye[:, 2]))
ready = basis_state(layout(("meter", 3)), 0)

ideal = build_ideal(measured, pointer_states, ready)
print("isometry shape:", ideal.isometry.shape)
print("unitary shape:", complete_unitary(ideal).shape)

# a superposition input entangles object and meter
amps = np.array([0.5, 0.5, np.sqrt(0.5)], dtype=complex)
state = StateVector(layout(("atom", 3)), amps)
final = evolve(ideal, state)
print("\nfinal composite amplitudes (nonzero):")
for i, z in enumerate(final.amplitudes):
    if abs(z) > 1e-12:
        print(f"  index {i}: {z:.4f}")

for report in check_conditions(ideal, trials=20, seed=1):
    print(f"{report.condition:<26} residual {report.max_residual:.2e}  "
          f"{'PASS' if report.passed else 'FAIL'}")

# dressing with per-outcome unitaries breaks idealness but not the conditions;
# each instrument dressing acts on the range of its outcome's pointer branch.
# Only an object dressing's action on its branch's range enters, so
# build_exact keeps each term as the thin block U_k Q_k (here 3 x 1), and
# each pointer state as its dressed vector W_k |b_k>; random_dressings draws
# those blocks and a unitary on each pointer block (here a phase)
rng = np.random.default_rng(7)
exact = build_exact(ideal, random_dressings(ideal, rng))
print("\ndressed (general exact) premeasurement:")
for report in check_conditions(exact, trials=20, seed=2):
    print(f"{report.condition:<26} residual {report.max_residual:.2e}  "
          f"{'PASS' if report.passed else 'FAIL'}")

# but sharp inputs are no longer left untouched: the object state rotates
sharp = basis_state(layout(("atom", 3)), 0)
out = evolve(exact, sharp)
print("\nsharp input is still registered by pointer 0, object rotated:")
print("  weight on pointer sector 0:",
      float(np.linalg.norm(out.amplitudes.reshape(3, 3)[:, 0]) ** 2))
print("  object overlap with its input:",
      float(abs(np.vdot(sharp.amplitudes, out.amplitudes.reshape(3, 3)[:, 0]))))
