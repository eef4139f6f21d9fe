#!/usr/bin/env python3
"""Three routes to the same relative state, and conditioning on events.

The state of one subsystem in relation to a vector (or event) on its
partner can be computed by basis expansion, by partial scalar product, or
through a partial trace of the projected density operator.  All three agree
up to a phase, which is why the comparison happens at projector level.
"""

import numpy as np

from vnchain import (
    SubsystemBasis,
    complete_orthonormal,
    conditional_state,
    expand_in_basis,
    layout,
    partial_scalar_product,
    random_state,
    relative_state,
)

rng = np.random.default_rng(42)
lay = layout(("left", 3), ("right", 4))
psi = random_state(lay, rng)

raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
phi_right = raw / np.linalg.norm(raw)

# route 1: expand in any right-subsystem basis containing the vector
basis = SubsystemBasis("right", tuple(complete_orthonormal([phi_right], 4)))
coeff = expand_in_basis(psi, basis)[0][1].normalize()

# route 2: contract the bra directly and normalize
rel = relative_state(psi, "right", phi_right)

# route 3: condition the density operator on the rank-one event, given as
# its block: the unit vector as one column
cond = conditional_state(psi.density(), phi_right[:, None], "right")

p1 = np.outer(coeff.amplitudes, coeff.amplitudes.conj())
p2 = np.outer(rel.amplitudes, rel.amplitudes.conj())
print("projector distance, route 1 vs 2:", np.linalg.norm(p1 - p2))
print("projector distance, route 2 vs 3:", np.linalg.norm(p2 - cond.matrix))

# the raw contraction is an unnormalized coefficient vector; its squared
# norm is the probability of the subject vector
overlap = partial_scalar_product(phi_right, "right", psi)
print("\nsubject-vector probability:", overlap.norm() ** 2)

# conditioning works for events of any rank, in two equivalent forms: the
# plain one multiplies the dense matrix by P = Q Q^dag and factors the result
# once, the sandwich one conditions the state's factor through Q^dag; a
# rank-two event is given by two orthonormal columns
q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
event = q[:, :2]
plain = conditional_state(psi.density(), event, "right", form="plain")
sandwich = conditional_state(psi.density(), event, "right", form="sandwich")
print("plain vs sandwich form:", np.linalg.norm(plain.matrix - sandwich.matrix))
