"""Extract a hidden wire permutation from an inflated operator chain.

A permutation carries no entanglement, yet absorbed into a chain it inflates
the bonds like entanglement would. The greedy extraction sweeps batches of
disjoint bonds, testing a swap on every bond of the batch from both sides,
the left or the right, keeps each one that shrinks its bond, and repeats
until a full cycle of batches shrinks nothing; the permutation ends up
factored out exactly.
"""

import numpy as np

from mirrorbreak import QubitPermutation, identity_mpo, total_elements, unswap
from mirrorbreak.chains import absorb_gate, compress, mpo_to_dense
from mirrorbreak.circuit import Gate
from mirrorbreak.oracle import permutation_unitary

rng = np.random.default_rng(4)
n = 6
hidden = QubitPermutation(tuple(int(x) for x in rng.permutation(n)))
print("hidden permutation:", hidden.mapping)

# absorb its adjacent-swap factorization from the left; the chain inflates
m = identity_mpo(n)
for i, j in reversed(hidden.factorization):
    m = absorb_gate(m, Gate("swap", (i, j)), "left", 1e-12, 4096)
m = compress(m, 1e-12, 4096)
print("bond extents after absorption:", m.bond_dims())
print("total elements:", total_elements(m), f"(identity baseline {4 * n})")

# unswap is one greedy function of the chain and the two truncation numbers
res = unswap(m, epsilon=1e-10, chi_max=4096)
print("\nafter extraction:")
print("  bond extents:", res.reduced.bond_dims())
print("  accepted swaps:", res.accepted_swaps)
print("  left permutation: ", res.left_perm.mapping)
print("  right permutation:", res.right_perm.mapping)

reconstruction = (
    permutation_unitary(res.left_perm.mapping)
    @ mpo_to_dense(res.reduced)
    @ permutation_unitary(res.right_perm.mapping)
)
err = np.abs(reconstruction - mpo_to_dense(m)).max()
print(f"\nleft . reduced . right reconstructs the input to {err:.2e}")
