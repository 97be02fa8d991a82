"""Two independent roads to the same numbers.

The fast engine computes sub-channel entropies recursively, splitting
each parent into its two children without ever materializing the final
level.  The oracle takes the opposite road: enumerate every input word
u, map it through the self-inverse generator matrix (Kronecker powers
of the basic kernel, rows in bit-reversed order), enumerate every
output tuple, and sum the prefix laws of (y, u_1..u_j) for j = N..0,
each the pairwise marginal of the one below.  Sub-channel i is then the
chain-rule difference H(y, u_1..u_i) - H(y, u_1..u_{i-1}).

The two implementations share no kernels (the oracle accumulates in
natural-log space through its own log-sum-exp), so agreement to ~1e-14
checks both the recursion and the index convention.
"""

import math

import numpy as np

from polarlens import (
    brute_force_profile,
    generator_matrix,
    level_profile,
    make_bsc,
    random_joint,
)

ORDERS = (0.0, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, math.inf)

g = generator_matrix(3)
print("generator matrix at n=3 (self-inverse over GF(2)):")
print(g)
print("G @ G mod 2 == I:", bool((g.dot(g) % 2 == np.eye(8, dtype=int)).all()))

print("\nBSC(0.2):")
for level in (1, 2, 3):
    bf = brute_force_profile(make_bsc(0.2), level, orders=ORDERS)
    sp = level_profile(make_bsc(0.2), level, orders=ORDERS)
    print(f"  n={level}: max |engine - oracle| = {np.max(np.abs(bf - sp.entries)):.3e}")

print("\nrandom parents (seeded):")
rng = np.random.default_rng(42)
worst = 0.0
for t in range(8):
    d = random_joint(rng, max_symbols=5)
    bf = brute_force_profile(d, 2, orders=ORDERS)
    sp = level_profile(d, 2, orders=ORDERS)
    dev = float(np.max(np.abs(bf - sp.entries)))
    worst = max(worst, dev)
    print(f"  parent {t} ({d.n_atoms} symbols): max dev = {dev:.3e}")
print(f"\nworst deviation overall: {worst:.3e}")
