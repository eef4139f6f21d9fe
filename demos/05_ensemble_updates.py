#!/usr/bin/env python3
"""Classical ensembles under an occurred event: exact and sampled updates.

A proper mixture of pure composite states gets re-weighted when an event on
one subsystem occurs: each member keeps or loses statistical weight in
proportion to its own event probability.  The aggregate opposite-subsystem
state agrees with the closed-form conditional state, and a seeded sampler
reproduces the weights within binomial error.
"""

import numpy as np

from vnchain import (
    StateVector,
    WeightedEnsemble,
    ensemble_update,
    layout,
    monte_carlo_update,
)

lay = layout(("system", 2), ("meter", 2))
member_a = StateVector(lay, np.array([0.6, 0.8, 0.0, 0.0], dtype=complex))
member_b = StateVector(lay, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
ensemble = WeightedEnsemble(((0.4, member_a), (0.6, member_b)))

event = np.array([[1.0], [0.0]])  # meter found in |0>, as the block of |0><0|

result = ensemble_update(ensemble, event, "meter")
print("occurrence probability:", f"{result.occurrence_probability:.6f}")
for m in result.members:
    print(f"member {m.index}: prior {ensemble.weights[m.index]:.4f} -> posterior {m.weight:.6f}")

print("\naggregate system state after the event:")
print(np.round(result.aggregate.matrix, 6))

# the sampler draws a member, then flips the member's occurrence coin
mc = monte_carlo_update(ensemble, event, "meter", n_samples=200_000, seed=2024)
total = sum(mc.accepted_counts)
print(f"\nsampled {mc.n_samples} systems, event occurred on {total}")
for m in result.members:
    w_hat = mc.accepted_counts[m.index] / total
    se = np.sqrt(m.weight * (1 - m.weight) / total)
    print(
        f"member {m.index}: empirical {w_hat:.6f}, exact {m.weight:.6f}, "
        f"deviation {abs(w_hat - m.weight):.2e} (3se = {3 * se:.2e})"
    )

# same seed, same counts: runs are reproducible
again = monte_carlo_update(ensemble, event, "meter", n_samples=200_000, seed=2024)
print("\nbit-identical rerun:", again == mc)
