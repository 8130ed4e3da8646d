"""Experiment drivers (system S10): one module per paper artifact.

================  ============================================
module             paper artifact
================  ============================================
``fig1``           Fig. 1  (single-optimization speedups, KNC)
``fig4``           Fig. 4  (per-class bounds landscape, KNC)
``fig5``           Fig. 5  (threshold grid search)
``fig7``           Fig. 7  (a: KNC, b: KNL, c: Broadwell)
``table2``         Table II (features & extraction scaling)
``table3``         Table III (platforms & STREAM)
``table4``         Table IV (classifier LOO accuracy)
``table5``         Table V (amortization iterations, KNL)
``ablations``      A1-A6 ablations (incl. the A5/A6 extensions)
``report``         full markdown reproduction report
================  ============================================
"""

from . import (
    ablations,
    fig1,
    fig4,
    fig5,
    fig7,
    report,
    table2,
    table3,
    table4,
    table5,
)
from .common import ExperimentTable, geometric_mean, render_table, trained_feature_classifier

__all__ = [
    "fig1",
    "fig4",
    "fig5",
    "fig7",
    "table2",
    "table3",
    "table4",
    "table5",
    "ablations",
    "report",
    "ExperimentTable",
    "render_table",
    "geometric_mean",
    "trained_feature_classifier",
]
