"""Graph-learning clustering that preserves kernel similarity.

The solver learns a nonnegative affinity graph close to a kernel matrix
while a spectral penalty forces the graph into exactly c connected
components, which are the clusters. A multiple-kernel variant learns
weights over a bank of kernels at the same time.
"""

from .kernels import (
    GAUSSIAN_T_GRID,
    POLYNOMIAL_AB_GRID,
    Dataset,
    KernelMatrix,
    KernelSpec,
    as_kernel,
    build_standard_bank,
    gaussian_kernel,
    normalize_kernel,
    pairwise_sq_dist,
)
from .metrics import Partition, accuracy, lloyd_kmeans, nmi, purity
from .mkl import MklState, combine_kernels, kernel_costs, run_mspc, update_weights
from .numerics import (
    EigenSystem,
    FactorizationError,
    spd_factorize,
    symmetric_eigen,
)
from .spc import (
    ClusteringResult,
    SpcConfig,
    SpcTrace,
    build_laplacian,
    extract_labels,
    objective,
    project_nonneg,
    run_spc,
    update_embedding,
    update_graph,
)
from .workbench import (
    ExperimentConfig,
    RunReport,
    emit_scatter_svg,
    generate_two_moons,
    load_dense_matrix,
    load_labels,
    load_matrix,
    run_experiment,
    save_labels,
    save_matrix,
)

__all__ = [
    "GAUSSIAN_T_GRID",
    "POLYNOMIAL_AB_GRID",
    "Dataset",
    "KernelMatrix",
    "KernelSpec",
    "as_kernel",
    "build_standard_bank",
    "gaussian_kernel",
    "normalize_kernel",
    "pairwise_sq_dist",
    "Partition",
    "accuracy",
    "lloyd_kmeans",
    "nmi",
    "purity",
    "MklState",
    "combine_kernels",
    "kernel_costs",
    "run_mspc",
    "update_weights",
    "EigenSystem",
    "FactorizationError",
    "spd_factorize",
    "symmetric_eigen",
    "ClusteringResult",
    "SpcConfig",
    "SpcTrace",
    "build_laplacian",
    "extract_labels",
    "objective",
    "project_nonneg",
    "run_spc",
    "update_embedding",
    "update_graph",
    "ExperimentConfig",
    "RunReport",
    "emit_scatter_svg",
    "generate_two_moons",
    "load_dense_matrix",
    "load_labels",
    "load_matrix",
    "run_experiment",
    "save_labels",
    "save_matrix",
]

__version__ = "0.1.0"
