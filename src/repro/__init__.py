"""NeuTraj reproduction: linear-time trajectory similarity via seed-guided
neural metric learning (Yao et al., ICDE 2019).

Public API highlights
---------------------
``NeuTraj`` / ``NeuTrajConfig``
    The model: fit on seed trajectories, then ``embed`` / ``similarity`` /
    ``top_k`` in linear time.
``get_measure``
    Exact measures: ``"dtw"``, ``"frechet"``, ``"hausdorff"``, ``"erp"``.
``generate_porto`` / ``generate_geolife`` / ``generate_zero_shot_seeds``
    Synthetic workloads standing in for the paper's datasets (see DESIGN.md).
See README.md for a quickstart.
"""

from .core import (EmbeddingStore, MetricModel, NeuTraj, NeuTrajConfig,
                   SiameseTraj, TrainingHistory, get_precompute_config,
                   set_precompute_config)
from .dataquality import (QualityReport, SanitizeConfig, sanitize,
                          sanitize_dataset)
from .datasets import (GeolifeConfig, Grid, PortoConfig, RoadNetworkConfig,
                       Trajectory, TrajectoryDataset, generate_geolife,
                       generate_porto, generate_zero_shot_seeds)
from .exceptions import (ConfigurationError, InvalidTrajectoryError,
                         NotFittedError, ReproError)
from .measures import (available_measures, cross_distances, get_measure,
                       pairwise_distances)

__version__ = "1.0.0"

__all__ = [
    "EmbeddingStore", "MetricModel", "NeuTraj", "NeuTrajConfig",
    "SiameseTraj",
    "TrainingHistory", "get_precompute_config", "set_precompute_config",
    "QualityReport", "SanitizeConfig", "sanitize", "sanitize_dataset",
    "GeolifeConfig", "Grid", "PortoConfig", "RoadNetworkConfig",
    "Trajectory", "TrajectoryDataset", "generate_geolife", "generate_porto",
    "generate_zero_shot_seeds",
    "ConfigurationError", "InvalidTrajectoryError", "NotFittedError",
    "ReproError",
    "available_measures", "cross_distances", "get_measure",
    "pairwise_distances",
    "__version__",
]
