"""MPS weights: evaluation, canonical gauges, compression, truncation.

Run:  python demos/02_mps_basics.py
"""

import numpy as np

from mpslab import FeatureMap, canonicalize, compress, random_init, truncate
from mpslab.features import featurize_batch, full_feature_tensor
from mpslab.mps import shift_center

fmap = FeatureMap(dim=3)

# a random 6-site MPS with bond dimension 8
w = random_init(n=6, f=3, chi=8, scale=0.4, seed=0)
print("random MPS:", w)

# efficient evaluation agrees with the brute-force contraction
# (evaluate_batch contracts a (T, N, f) batch; here T = 1)
x = np.random.default_rng(1).standard_normal((1, 6))
phi = featurize_batch(fmap, x)
fast = float(w.evaluate_batch(phi)[0])
slow = float(np.sum(w.to_full_tensor() * full_feature_tensor(phi[0])))
print(f"evaluate_batch: {fast:.12f}   full contraction: {slow:.12f}")

# mixed canonical gauge concentrates the norm in the center core
c = canonicalize(w, center=3)
print("\nnorm^2 of the MPS      :", w.norm_squared())
print("||center core||_F^2    :", float(np.sum(c.cores[3] ** 2)))

# shift_center moves the center one site: QR core 3, absorb R into core 4.
# An MPS carries no gauge label; where the center sits is the caller's.
cores = list(c.cores)
shift_center(cores, 3, +1)
print("||core 4||_F^2 after shift_center(+1):", float(np.sum(cores[4] ** 2)))

# compressing a dense tensor: bond profile and reconstruction error
t = w.to_full_tensor()
for chi in (27, 8, 3, 1):
    back, discarded = compress(t, max_bond=chi)
    err = np.linalg.norm(back.to_full_tensor() - t) / np.linalg.norm(t)
    print(f"compress to chi={chi:>2}: bonds {back.bond_dims}, "
          f"rel error {err:.3e}, discarded {discarded.sum():.3e}")

# truncation works directly on the chain, no dense detour
small = truncate(w, max_bond=2)
print("\ntruncate(chi=2) bonds:", small.bond_dims)
