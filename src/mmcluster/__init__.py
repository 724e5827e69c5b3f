"""Multi-manifold clustering via local PCA and spectral graph partitioning."""

from .affinity import (
    ScaleParams,
    auto_epsilon,
    auto_eta,
    cov_indicator_affinity,
    gaussian_product_affinity,
    gong_affinity,
    proj_indicator_affinity,
    wang_affinity,
)
from .cluster import (
    KMeansResult,
    Labeling,
    algorithm2_cov_components,
    algorithm3_proj_components,
    algorithm4_local_pca_spectral,
    kmeans_pp,
    njw_baseline,
    njw_partition,
)
from .datasets import DatasetSpec, distance_to_surface, generate, global_radius
from .evaluation import MethodConfig, TrialStats, angle_sweep, misclustering_rate, run_trials
from .linalg import (
    EigenDecomposition,
    eigh,
    frobenius_norm,
    principal_angles,
    spectral_norm,
)
from .local_pca import (
    LocalModels,
    batch_local_models,
    estimate_dim_thresholded,
    estimate_projection,
    local_covariance,
)
from .neighborhoods import (
    NeighborhoodIndex,
    PointCloud,
    assign_to_closest_survivor,
    build_index,
    connected_components,
    subsample_centers,
)
from .seeding import derive_seed

__version__ = "0.1.0"

__all__ = [
    "DatasetSpec",
    "EigenDecomposition",
    "KMeansResult",
    "Labeling",
    "LocalModels",
    "MethodConfig",
    "NeighborhoodIndex",
    "PointCloud",
    "ScaleParams",
    "TrialStats",
    "algorithm2_cov_components",
    "algorithm3_proj_components",
    "algorithm4_local_pca_spectral",
    "angle_sweep",
    "assign_to_closest_survivor",
    "auto_epsilon",
    "auto_eta",
    "batch_local_models",
    "build_index",
    "connected_components",
    "cov_indicator_affinity",
    "derive_seed",
    "distance_to_surface",
    "eigh",
    "estimate_dim_thresholded",
    "estimate_projection",
    "frobenius_norm",
    "gaussian_product_affinity",
    "generate",
    "global_radius",
    "gong_affinity",
    "kmeans_pp",
    "local_covariance",
    "misclustering_rate",
    "njw_baseline",
    "njw_partition",
    "principal_angles",
    "proj_indicator_affinity",
    "run_trials",
    "spectral_norm",
    "subsample_centers",
    "wang_affinity",
]
