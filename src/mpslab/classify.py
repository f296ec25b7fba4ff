"""Labeled-MPS multi-class classification on raster images.

Pixels in [0, 1] are embedded with the two-component trigonometric map,
the chain carries one extra class axis at its center site, and squared,
normalized outputs play the role of class probabilities.
"""

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .datagen import add_label_noise
from .dmrg import PROB_FLOOR, TrainConfig, train_arrays
from .errors import IdxFormatError
from .features import TRIGONOMETRIC, FeatureMap, SiteFeatures, featurize_batch
from .mps import MPS, random_init
from .tables import write_table

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

NUM_CLASSES = 10

mnist_feature_map = FeatureMap(kind=TRIGONOMETRIC, dim=2)


@dataclass
class ImageDataset:
    images: np.ndarray  # (count, H, W), values in [0, 1]
    labels: np.ndarray  # (count,), ints in [0, num_classes)
    num_classes: int = NUM_CLASSES

    @property
    def count(self) -> int:
        return self.images.shape[0]


def _read_idx(path, expected_magic):
    with open(path, "rb") as fh:
        head = fh.read(2)
    opener = gzip.open if head == b"\x1f\x8b" else open
    with opener(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise IdxFormatError(f"{path}: truncated magic at offset 0")
    (magic,) = struct.unpack(">I", data[:4])
    if magic != expected_magic:
        raise IdxFormatError(
            f"{path}: bad magic 0x{magic:08x} at offset 0, "
            f"expected 0x{expected_magic:08x}"
        )
    ndim = magic & 0xFF
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise IdxFormatError(f"{path}: truncated header at offset {len(data)}")
    dims = struct.unpack(f">{ndim}I", data[4:header_end])
    count = int(np.prod(dims))
    if len(data) < header_end + count:
        raise IdxFormatError(
            f"{path}: truncated payload at offset {len(data)}, "
            f"expected {header_end + count} bytes"
        )
    return np.frombuffer(data, np.uint8, count=count, offset=header_end).reshape(dims)


def load_idx(images_path, labels_path) -> ImageDataset:
    """Read an IDX image/label file pair (optionally gzip-compressed);
    every label must be a class below NUM_CLASSES."""
    images = _read_idx(images_path, IMAGES_MAGIC)
    labels = _read_idx(labels_path, LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    outside = np.flatnonzero(labels >= NUM_CLASSES)
    if outside.size:
        k = outside[0]
        raise IdxFormatError(
            f"{labels_path}: label {labels.flat[k]} at offset "
            f"{4 + 4 * labels.ndim + k} is not a class in [0, {NUM_CLASSES})"
        )
    return ImageDataset(images=images.astype(np.float64) / 255.0,
                        labels=labels.astype(np.int64))


def preprocess(d: ImageDataset, downsample: int = 2) -> ImageDataset:
    """Average-pool by downsample x downsample blocks; range stays [0, 1]."""
    if downsample < 1:
        raise ValueError(f"downsample factor must be >= 1, got {downsample}")
    count, h, w = d.images.shape
    if h % downsample or w % downsample:
        raise ValueError(
            f"factor {downsample} does not divide image shape {h}x{w}"
        )
    if downsample == 1:
        return ImageDataset(d.images.copy(), d.labels.copy(), d.num_classes)
    pooled = d.images.reshape(count, h // downsample, downsample,
                              w // downsample, downsample).mean(axis=(2, 4))
    return ImageDataset(pooled, d.labels.copy(), d.num_classes)


def featurize_images(d: ImageDataset):
    """Raster-order site layout: (T, H*W, f) local feature vectors."""
    return featurize_batch(mnist_feature_map, _pixels(d))


def site_features(d: ImageDataset) -> SiteFeatures:
    """``featurize_images(d)`` one site at a time, without the (T, H*W, f)
    array: 16 bytes a pixel as features, 31.4 MB for 10,000 14x14
    images."""
    return SiteFeatures(mnist_feature_map, _pixels(d))


def _pixels(d: ImageDataset) -> np.ndarray:
    """The images as a (T, H*W) matrix in raster order."""
    return d.images.reshape(d.count, -1)


def predict_proba(w: MPS, phi) -> np.ndarray:
    """Squared, normalized class outputs for (T, N, f) featurized samples
    (an array or ``SiteFeatures``), shape (T, C); an all-zero output row
    gives an all-zero row."""
    v = w.evaluate_batch(phi)
    total = (v**2).sum(axis=1, keepdims=True)
    return v**2 / np.maximum(total, PROB_FLOOR)


def subset(d: ImageDataset, count: int, seed) -> ImageDataset:
    """Deterministic random subset of ``count`` images."""
    if count > d.count:
        raise ValueError(f"asked for {count} of {d.count} images")
    idx = np.random.default_rng(seed).choice(d.count, size=count, replace=False)
    return ImageDataset(d.images[idx], d.labels[idx], d.num_classes)


def corrupt_labels(d: ImageDataset, fraction: float, seed) -> ImageDataset:
    noisy = add_label_noise(d.labels, fraction, d.num_classes, seed)
    return ImageDataset(d.images, noisy, d.num_classes)


def init_classifier_mps(n_sites: int, chi: int, seed,
                        num_classes: int = NUM_CLASSES) -> MPS:
    """Gaussian-initialized labeled MPS, class axis at the center site."""
    f = mnist_feature_map.dim
    scale = 1.0 / np.sqrt(f * chi)
    return random_init(n_sites, f, chi, scale=scale, seed=seed,
                       label_site=n_sites // 2, label_dim=num_classes)


def train_classifier(train_set: ImageDataset, val_set, test_set, chi: int,
                     config: TrainConfig, seed: int = 0):
    """Train a labeled MPS on images with the cross-entropy ``config``.

    Every set is passed as ``SiteFeatures``: training and evaluation embed
    a site where they read it, so no (T, H*W, f) feature array is held.
    """
    n_sites = train_set.images.shape[1] * train_set.images.shape[2]
    w0 = init_classifier_mps(n_sites, chi, seed, train_set.num_classes)

    def prep(ds):
        if ds is None:
            return None, None
        return site_features(ds), ds.labels

    phi_tr, y_tr = prep(train_set)
    phi_val, y_val = prep(val_set)
    phi_te, y_te = prep(test_set)
    return train_arrays(w0, phi_tr, y_tr, phi_val, y_val, phi_te, y_te, config)


def export_predictions(w: MPS, d: ImageDataset, path) -> None:
    """CSV of per-image predictions: index,true,predicted,p0..p9."""
    p = predict_proba(w, site_features(d))
    pred = np.argmax(p, axis=1)
    write_table(path, ["index", "true", "predicted"]
                + [f"p{c}" for c in range(d.num_classes)],
                ([i, d.labels[i], pred[i], *p[i]] for i in range(d.count)))
