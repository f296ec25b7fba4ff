"""Closed-form training and the optimal bond dimension.

Solving the regularized normal equations in the full 3^6-dimensional
feature space and compressing the solution to bond dimension chi traces
out a U-shaped test loss: too small underfits, too large overfits the
finite training set.

Run:  python demos/04_inversion_and_bond_scan.py   (a few seconds)
"""

import numpy as np

from mpslab import FeatureMap, TargetSpec, generate_dataset
from mpslab.dmrg import MSE, data_loss, frame_labels
from mpslab.exact import build_design_system, solve_full_weight
from mpslab.features import featurize_batch
from mpslab.mps import compress

fmap = FeatureMap(dim=3)
spec = TargetSpec(epsilon=0.3, seed=0)
test = generate_dataset(spec, 1024, seed=999_983)
phi_test = featurize_batch(fmap, test.features)

chis = list(range(2, 28))
replicates = 10
losses = np.zeros((replicates, len(chis)))

for rep in range(replicates):
    train = generate_dataset(spec, 300, seed=1000 + rep)
    # one ridge solve per training set (the 300x300 dual system, as
    # 300 < 3^6), then one compression per chi
    phi_train = featurize_batch(fmap, train.features)
    full = solve_full_weight(build_design_system(phi_train, train.labels,
                                                 ridge=1e-6))
    y_test = frame_labels(test, train)
    for k, chi in enumerate(chis):
        w, _ = compress(full, chi)
        losses[rep, k] = data_loss(w.evaluate_batch(phi_test), y_test, MSE)

mean = losses.mean(axis=0)
std = losses.std(axis=0, ddof=1)
best = int(np.argmin(mean))

print("chi   mean test loss   (std over training sets)")
for k, chi in enumerate(chis):
    marker = "  <-- chi*" if k == best else ""
    bar = "#" * int(40 * mean[k] / mean.max())
    print(f"{chi:>3}   {mean[k]:12.5f}   ({std[k]:.5f})  {bar}{marker}")

print(f"\noptimal bond dimension chi* = {chis[best]}; the maximum-capacity "
      f"model (chi=27) is {mean[-1] / mean[best]:.1f}x worse on unseen data")
