"""MPS regression and classification laboratory."""

__version__ = "0.1.0"

from .datagen import (Dataset, TargetSpec, add_label_noise, build_nilpotent,
                      build_target_mps, generate_dataset, sample_features)
from .dmrg import TrainConfig, TrainTrace, train
from .exact import (DesignSystem, build_design_system,
                    inversion_and_compression, solve_full_weight)
from .features import FeatureMap, featurize_batch
from .mps import (MPS, canonicalize, compress, load_mps, random_init,
                  save_mps, truncate)
from .tensor import SvdResult, solve_linear, svd_truncate

__all__ = [
    "Dataset", "DesignSystem", "FeatureMap", "MPS", "SvdResult",
    "TargetSpec", "TrainConfig", "TrainTrace", "add_label_noise",
    "build_design_system", "build_nilpotent", "build_target_mps",
    "canonicalize", "compress", "featurize_batch", "generate_dataset",
    "inversion_and_compression", "load_mps", "random_init",
    "sample_features", "save_mps", "solve_full_weight", "solve_linear",
    "svd_truncate", "train", "truncate",
]
