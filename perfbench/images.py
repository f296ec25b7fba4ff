"""Seeded synthetic 14x14 images: the MNIST stand-in of the classifier
workload.

MNIST cannot be downloaded where this benchmark runs, so the classifier
is timed on images with MNIST's downsampled geometry (14x14 pixels in
[0, 1], 10 classes) instead.  Each class has a fixed prototype made of a
few Gaussian strokes; a sample is its class prototype plus Gaussian pixel
noise, clipped to [0, 1].  The prototypes play the role of the regression
target MPS: they define the task and do not change with the workload
seed, which only draws the samples.  Accuracy figures on these images say
nothing about MNIST; the benchmark uses them for cost and as a sanity
check that training learns.
"""

import numpy as np

SIDE = 14
NUM_CLASSES = 10
PROTOTYPE_SEED = 14
STROKES_PER_CLASS = 3


def prototypes(num_classes=NUM_CLASSES, side=SIDE, seed=PROTOTYPE_SEED):
    """(num_classes, side, side) class templates with peak value 1."""
    rng = np.random.default_rng(seed)
    grid = np.arange(side) / (side - 1)
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    out = np.zeros((num_classes, side, side))
    for c in range(num_classes):
        for _ in range(STROKES_PER_CLASS):
            cy, cx = rng.uniform(0.15, 0.85, size=2)
            width = rng.uniform(0.08, 0.18)
            out[c] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2)
                             / (2.0 * width**2))
        out[c] /= out[c].max()
    return out


def sample(protos, count, rng, noise):
    """``count`` noisy images with uniformly drawn labels.

    Returns (images, labels): images (count, side, side) in [0, 1],
    labels int64 in [0, len(protos)).
    """
    labels = rng.integers(0, len(protos), size=count)
    pixels = protos[labels] + noise * rng.standard_normal(
        (count,) + protos.shape[1:])
    return np.clip(pixels, 0.0, 1.0), labels.astype(np.int64)
