"""The paper's primary contribution (system S6): bottleneck-classifying
adaptive SpMV optimization."""

from ..model import PerformanceBounds, profiling_seconds
from .amortization import AmortizationCase, AmortizationSummary, amortization_study
from .classes import (
    ALL_CLASSES,
    EMPTY_CLASSES,
    Bottleneck,
    ClassSet,
    classes_to_labels,
    format_classes,
    labels_to_classes,
)
from .feature_classifier import FeatureGuidedClassifier, TrainingReport
from .gridsearch import GridPoint, GridSearchResult, tune_profile_thresholds
from .optimizer import (
    CACHE_SCHEMA_VERSION,
    PLAN_SCHEMA_VERSION,
    AdaptiveSpMV,
    OptimizationPlan,
    OptimizedSpMV,
    PlanCache,
    matrix_fingerprint,
    plan_cache_load_recoveries,
    reset_plan_cache_load_recoveries,
)
from .oracle import OracleChoice, oracle_configurations, oracle_search
from .partitioned_ml import (
    ExtendedProfileClassifier,
    PartitionedMLDetector,
    PartitionedMLReport,
    PartitionGain,
)
from .pool import DEFAULT_POOL, OptimizationPool, PoolPolicy
from .profile_classifier import (
    ProfileGuidedClassifier,
    ProfileThresholds,
    classify_from_bounds,
)

__all__ = [
    "Bottleneck",
    "ClassSet",
    "ALL_CLASSES",
    "EMPTY_CLASSES",
    "classes_to_labels",
    "labels_to_classes",
    "format_classes",
    "PerformanceBounds",
    "profiling_seconds",
    "ProfileThresholds",
    "ProfileGuidedClassifier",
    "classify_from_bounds",
    "PartitionedMLDetector",
    "PartitionedMLReport",
    "PartitionGain",
    "ExtendedProfileClassifier",
    "FeatureGuidedClassifier",
    "TrainingReport",
    "OptimizationPool",
    "PoolPolicy",
    "DEFAULT_POOL",
    "AdaptiveSpMV",
    "OptimizationPlan",
    "OptimizedSpMV",
    "PlanCache",
    "PLAN_SCHEMA_VERSION",
    "CACHE_SCHEMA_VERSION",
    "matrix_fingerprint",
    "plan_cache_load_recoveries",
    "reset_plan_cache_load_recoveries",
    "OracleChoice",
    "oracle_search",
    "oracle_configurations",
    "GridPoint",
    "GridSearchResult",
    "tune_profile_thresholds",
    "AmortizationCase",
    "AmortizationSummary",
    "amortization_study",
]
