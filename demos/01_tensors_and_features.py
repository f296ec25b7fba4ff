"""Tour of the low-level pieces: contraction, truncated SVD, feature maps.

Run:  python demos/01_tensors_and_features.py
"""

import numpy as np

from mpslab import FeatureMap, featurize_batch, svd_truncate

# --- general pairwise tensor contraction -------------------------------
a = np.arange(24.0).reshape(2, 3, 4)
b = np.arange(12.0).reshape(4, 3)

# sum over (axis 2 of a, axis 0 of b) and (axis 1 of a, axis 1 of b)
c = np.tensordot(a, b, axes=([2, 1], [0, 1]))
print("contract (2,3,4) x (4,3) over two axis pairs ->", c.shape, c)

# --- truncated SVD with discarded-weight accounting --------------------
rng = np.random.default_rng(0)
m = rng.standard_normal((12, 12))
res = svd_truncate(m, max_rank=4)
approx = res.left_factor @ np.diag(res.singular_values) @ res.right_factor
print("\nrank-4 SVD of a 12x12 matrix:")
print("  kept singular values:", np.round(res.singular_values, 3))
print("  ||m - approx||_F^2  :", np.sum((m - approx) ** 2))
print("  discarded weight    :", res.discarded_weight)

# --- feature maps -------------------------------------------------------
# featurize_batch embeds a (T, N) feature matrix as (T, N, f) local vectors
poly = FeatureMap(dim=3)
print("\npolynomial map of x = 2:",
      featurize_batch(poly, np.array([[2.0]]))[0, 0])

trig = FeatureMap(kind="trigonometric", dim=2)
print("trigonometric map of x = 0.5:",
      featurize_batch(trig, np.array([[0.5]]))[0, 0])

# a sample becomes one local vector per feature; the f^N product tensor
# is implicit
x = np.array([[0.5, -1.0, 2.0]])
print("\nlocal vectors for x =", x[0])
print(featurize_batch(poly, x)[0])
