"""repro — adaptive bottleneck-classifying SpMV optimization.

A from-scratch reproduction of Elafrou, Goumas & Koziris, "Performance
Analysis and Optimization of Sparse Matrix-Vector Multiplication on
Modern Multi- and Many-Core Processors" (IPDPS 2017), including every
substrate it runs on: sparse formats, a synthetic matrix corpus, an
analytical multi/many-core performance simulator standing in for the
paper's KNC/KNL/Broadwell testbeds, SpMV kernel variants, a CART
decision tree, vendor-baseline analogues and iterative solvers.

Quickstart::

    from repro import AdaptiveSpMV, KNL, named_matrix

    A = named_matrix("ASIC_680k")
    optimizer = AdaptiveSpMV(KNL, classifier="profile")
    op = optimizer.optimize(A)
    print(op.plan)                 # detected classes + selected opts
    y = op.matvec(x)               # numerically exact SpMV
    print(op.simulate().gflops)    # simulated performance on KNL
"""

from .baselines import InspectorExecutor, TrivialOptimizer, mkl_csr_kernel, run_mkl_csr
from .errors import (
    FormatValidationError,
    ReproError,
    SolverBreakdownError,
    ValidationIssue,
    ValidationReport,
)
from .core import (
    AdaptiveSpMV,
    Bottleneck,
    FeatureGuidedClassifier,
    OptimizationPlan,
    OptimizationPool,
    OptimizedSpMV,
    PerformanceBounds,
    PlanCache,
    ProfileGuidedClassifier,
    ProfileThresholds,
    amortization_study,
    classify_from_bounds,
    format_classes,
    matrix_fingerprint,
    oracle_search,
    tune_profile_thresholds,
)
from .formats import COOMatrix, CSRMatrix, DecomposedCSR, DeltaCSR
from .kernels import ConfiguredSpMV, SpMVConfig, baseline_kernel
from .machine import (
    BROADWELL,
    KNC,
    KNL,
    MachineSpec,
    PLATFORMS,
    RunResult,
    get_platform,
)
from .model import (
    AnalyticModel,
    CalibratedModel,
    CostModel,
    MachineProfile,
    Prediction,
    calibrate,
    prediction_error_pct,
)
from .matrices import (
    extract_features,
    load_suite,
    named_matrix,
    read_matrix_market,
    suite_names,
    training_suite,
    write_matrix_market,
)
from .guard import (
    GuardedKernel,
    clear_quarantine,
    is_quarantined,
    quarantined_kernel_names,
)
from .parallel import ParallelConfig, ParallelMeasurement
from .pipeline import PipelineContext, Tracer
from .engine import (
    Executor,
    ExecutorSpec,
    SupervisedExecutor,
    SupervisionSpec,
    build_executor,
)
from .solvers import SolverReport, bicgstab, cg, gmres, jacobi_preconditioner

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # formats
    "COOMatrix",
    "CSRMatrix",
    "DeltaCSR",
    "DecomposedCSR",
    # machine
    "MachineSpec",
    "KNC",
    "KNL",
    "BROADWELL",
    "PLATFORMS",
    "get_platform",
    "RunResult",
    # matrices
    "named_matrix",
    "suite_names",
    "load_suite",
    "training_suite",
    "extract_features",
    "read_matrix_market",
    "write_matrix_market",
    # kernels
    "SpMVConfig",
    "ConfiguredSpMV",
    "baseline_kernel",
    # model
    "CostModel",
    "Prediction",
    "AnalyticModel",
    "CalibratedModel",
    "MachineProfile",
    "calibrate",
    "prediction_error_pct",
    # core
    "Bottleneck",
    "format_classes",
    "PerformanceBounds",
    "classify_from_bounds",
    "ProfileThresholds",
    "ProfileGuidedClassifier",
    "FeatureGuidedClassifier",
    "OptimizationPool",
    "AdaptiveSpMV",
    "OptimizationPlan",
    "OptimizedSpMV",
    "PlanCache",
    "matrix_fingerprint",
    "oracle_search",
    "tune_profile_thresholds",
    "amortization_study",
    # parallel
    "ParallelConfig",
    "ParallelMeasurement",
    # pipeline
    "Tracer",
    "PipelineContext",
    # engine
    "Executor",
    "ExecutorSpec",
    "SupervisionSpec",
    "build_executor",
    "SupervisedExecutor",
    # baselines
    "mkl_csr_kernel",
    "run_mkl_csr",
    "InspectorExecutor",
    "TrivialOptimizer",
    # solvers
    "cg",
    "bicgstab",
    "gmres",
    "jacobi_preconditioner",
    "SolverReport",
    # guard / error taxonomy
    "ReproError",
    "FormatValidationError",
    "SolverBreakdownError",
    "ValidationIssue",
    "ValidationReport",
    "GuardedKernel",
    "is_quarantined",
    "quarantined_kernel_names",
    "clear_quarantine",
]
