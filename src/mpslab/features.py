"""Per-feature embeddings and implicit product feature tensors.

A sample x in R^N is mapped site by site into N local vectors of length f;
the full f^N feature tensor is their outer product and is never
materialized except by the test oracles.  ``featurize_batch`` holds all N
local vectors of every sample; ``SiteFeatures`` embeds one site on demand.
"""

from dataclasses import dataclass

import numpy as np

POLYNOMIAL = "polynomial"
TRIGONOMETRIC = "trigonometric"


@dataclass(frozen=True)
class FeatureMap:
    """Scalar-to-vector embedding.

    ``polynomial`` maps x to (1, x, x^2, ..., x^(f-1)).  ``trigonometric``
    maps x in [0, 1] to (cos(pi x / 2), sin(pi x / 2)) and requires f = 2;
    it is used by the image classifier only.
    """

    kind: str = POLYNOMIAL
    dim: int = 3

    def __post_init__(self):
        if self.kind not in (POLYNOMIAL, TRIGONOMETRIC):
            raise ValueError(f"unknown feature map kind {self.kind!r}")
        if self.dim < 2:
            raise ValueError(f"feature dimension must be >= 2, got {self.dim}")
        if self.kind == TRIGONOMETRIC and self.dim != 2:
            raise ValueError("trigonometric map has fixed dimension 2")


def featurize_batch(fmap: FeatureMap, x: np.ndarray) -> np.ndarray:
    """Embed a (T, N) feature matrix into a (T, N, f) array."""
    return _embed(fmap, _checked(fmap, x))


def _checked(fmap: FeatureMap, x) -> np.ndarray:
    """``x`` as a float64 (T, N) matrix the map can embed, else ValueError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"expected a non-empty (T, N) matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature matrix has non-finite entries")
    if fmap.kind == TRIGONOMETRIC and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError("trigonometric map needs all features in [0, 1]")
    return x


def _embed(fmap: FeatureMap, x: np.ndarray) -> np.ndarray:
    """The (T, n, f) local vectors of a checked (T, n) matrix."""
    if fmap.kind == POLYNOMIAL:
        # running products 1, x, x*x, (x*x)*x, ...: one multiply per
        # column instead of a pow per entry, and the same bits on every
        # host (pow(x, k) may be 1 ulp from the correctly rounded product)
        out = np.empty(x.shape + (fmap.dim,))
        out[:, :, 0] = 1.0
        out[:, :, 1] = x
        for k in range(2, fmap.dim):
            np.multiply(out[:, :, k - 1], x, out=out[:, :, k])
        return out
    half_pi_x = 0.5 * np.pi * x
    return np.stack([np.cos(half_pi_x), np.sin(half_pi_x)], axis=-1)


class SiteFeatures:
    """The local vectors of a (T, N) feature matrix, embedded one site at
    a time.

    ``SiteFeatures(fmap, x)`` checks ``x`` as ``featurize_batch`` does and
    keeps it, not its (T, N, f) embedding: ``sf[:, j]`` embeds column j
    alone, bit for bit ``featurize_batch(fmap, x)[:, j]``.  Training and
    evaluation read one site at a time, so they never hold the whole
    embedding, f times the size of the float64 matrix.
    """

    def __init__(self, fmap: FeatureMap, x):
        self.fmap = fmap
        self.x = _checked(fmap, x)
        self.shape = self.x.shape + (fmap.dim,)

    def __getitem__(self, key):
        if not (isinstance(key, tuple) and len(key) == 2
                and isinstance(key[0], slice) and key[0] == slice(None)
                and isinstance(key[1], (int, np.integer))):
            raise TypeError(f"SiteFeatures reads one site as [:, j], got {key!r}")
        return _embed(self.fmap, self.x[:, key[1], None])[:, 0]


def full_feature_tensor(locals_: np.ndarray) -> np.ndarray:
    """Outer product of the local vectors: the explicit f^N tensor.

    Test oracle only; O(f^N) memory.
    """
    out = np.ones(())
    for vec in locals_:
        out = np.multiply.outer(out, vec)
    return out
