"""Ablation experiments (A1-A4 in DESIGN.md).

These probe the design choices the paper fixes without sweeping:

* A1 — IMB strategy: decomposition vs ``auto`` scheduling vs dynamic,
  on skewed and regionally-uneven matrices;
* A2 — delta width: forced 8-bit vs forced 16-bit vs automatic choice;
* A3 — scheduling policy of the *baseline* kernel;
* A4 — decision-tree regularization and feature-set complexity.
"""

from __future__ import annotations

from ..kernels import ConfiguredSpMV, SpMVConfig, baseline_kernel
from ..machine import KNC, KNL, MachineSpec
from ..matrices import load_suite, named_matrix
from ..matrices.features import PAPER_ON_SUBSET, PAPER_ONNZ_SUBSET, O1_FEATURES
from ..ml import DecisionTree, k_fold
from ..model import AnalyticModel
from .common import ExperimentTable
from .table4 import corpus_features_and_labels

__all__ = [
    "imb_strategy",
    "delta_width",
    "scheduling_policies",
    "tree_ablation",
    "partitioned_ml",
    "bcsr_vs_delta",
    "format_landscape",
    "architecture_sensitivity",
]


def imb_strategy(machine: MachineSpec = KNL, scale: float = 1.0) -> ExperimentTable:
    """A1: which IMB remedy wins where."""
    model = AnalyticModel(machine)
    base = baseline_kernel()
    variants = {
        "decompose": ConfiguredSpMV(SpMVConfig(decompose=True)),
        "auto": ConfiguredSpMV(SpMVConfig(schedule="auto")),
        "dynamic": ConfiguredSpMV(SpMVConfig(schedule="dynamic")),
    }
    table = ExperimentTable(
        experiment_id="ablation-imb",
        title=f"IMB strategies, speedup over baseline on {machine.codename}",
        headers=("matrix", "kind", *variants.keys()),
    )
    cases = (
        ("ASIC_680k", "few huge rows"),
        ("FullChip", "few huge rows"),
        ("thermal2", "two-region unevenness"),
        ("parabolic_fem", "two-region unevenness"),
        ("consph", "regular (control)"),
    )
    for name, kind in cases:
        csr = named_matrix(name, scale=scale)
        r0 = model.run(base, base.preprocess(csr))
        row = [name, kind]
        for kernel in variants.values():
            r = model.run(kernel, kernel.preprocess(csr))
            row.append(float(r.gflops / r0.gflops))
        table.add(*row)
    table.note(
        "expected: decomposition wins on huge-row matrices (a schedule "
        "cannot split a row), auto/dynamic win on regional unevenness"
    )
    return table


def delta_width(machine: MachineSpec = KNC, scale: float = 1.0) -> ExperimentTable:
    """A2: forced delta widths vs the automatic choice."""
    model = AnalyticModel(machine)
    base = baseline_kernel()
    table = ExperimentTable(
        experiment_id="ablation-delta",
        title=f"Delta-compression width on {machine.codename} "
              "(speedup over baseline; resets per nnz)",
        headers=("matrix", "8-bit", "16-bit", "auto", "auto width",
                 "resets/nnz (8-bit)"),
    )
    for spec, csr in load_suite(
        scale=scale, names=("consph", "boneS10", "poisson3Db", "webbase-1M")
    ):
        r0 = model.run(base, base.preprocess(csr))
        row: list = [spec.name]
        auto_width = None
        resets8 = None
        for width in (8, 16, None):
            kernel = ConfiguredSpMV(
                SpMVConfig(compress=True, vectorize=True, delta_width=width)
            )
            data = kernel.preprocess(csr)
            delta = data.delta
            if width == 8:
                resets8 = delta.n_resets / max(csr.nnz, 1)
            if width is None:
                auto_width = delta.width
            r = model.run(kernel, data)
            row.append(float(r.gflops / r0.gflops))
        row.append(f"{auto_width}-bit")
        row.append(float(resets8))
        table.add(*row)
    table.note(
        "expected: 8-bit wins on narrow-band matrices, 16-bit on "
        "scattered ones; auto picks the right one"
    )
    return table


def scheduling_policies(machine: MachineSpec = KNC,
                        scale: float = 1.0) -> ExperimentTable:
    """A3: baseline-kernel scheduling policy comparison."""
    model = AnalyticModel(machine)
    policies = ("static-rows", "balanced-nnz", "auto", "dynamic")
    table = ExperimentTable(
        experiment_id="ablation-sched",
        title=f"Scheduling policies on {machine.codename} (Gflop/s)",
        headers=("matrix", *policies),
    )
    for spec, csr in load_suite(
        scale=scale,
        names=("consph", "citationCiteseer", "ASIC_680k", "thermal2"),
    ):
        row: list = [spec.name]
        for policy in policies:
            kernel = ConfiguredSpMV(SpMVConfig(schedule=policy))
            r = model.run(kernel, kernel.preprocess(csr))
            row.append(float(r.gflops))
        table.add(*row)
    table.note(
        "expected: balanced-nnz ~ static-rows on regular matrices; "
        "static-rows collapses on skewed ones"
    )
    return table


def partitioned_ml(machine: MachineSpec = KNC,
                   scale: float = 1.0) -> ExperimentTable:
    """A5: the paper's future-work extension — per-partition ML detection.

    Reproduces the rajat30 discussion of Section IV-C: the whole-matrix
    regularized benchmark misses the ML component of matrices whose
    dense rows dominate it; partition-level analysis recovers it, and
    the added prefetching yields "the additional performance boost".
    """
    from ..core import (
        AdaptiveSpMV,
        ExtendedProfileClassifier,
        PartitionedMLDetector,
        format_classes,
    )
    from ..matrices import load_suite

    detector = PartitionedMLDetector(machine)
    std = AdaptiveSpMV(machine, classifier="profile")
    ext = AdaptiveSpMV(
        machine, classifier=ExtendedProfileClassifier(machine)
    )
    table = ExperimentTable(
        experiment_id="ablation-partitioned-ml",
        title=(
            "Partitioned irregularity detection (paper future work) "
            f"on {machine.codename}"
        ),
        headers=("matrix", "global ML gain", "max part gain",
                 "ml nnz frac", "classes (std)", "classes (ext)",
                 "ext vs std"),
    )
    for spec, csr in load_suite(
        scale=scale, names=("rajat30", "ASIC_680k", "circuit5M", "consph")
    ):
        report = detector.analyze(csr)
        op_std = std.optimize(csr)
        op_ext = ext.optimize(csr)
        r_std = op_std.simulate()
        r_ext = op_ext.simulate()
        table.add(
            spec.name,
            float(report.whole_matrix_gain),
            float(report.max_gain),
            float(report.ml_nnz_fraction),
            format_classes(op_std.plan.classes),
            format_classes(op_ext.plan.classes),
            float(r_ext.gflops / r_std.gflops),
        )
    table.note(
        "expected: circuit matrices with dense rows gain a hidden ML "
        "class (and a speedup) from partitioned detection; regular "
        "matrices are unaffected"
    )
    return table


def bcsr_vs_delta(machine: MachineSpec = KNC,
                  scale: float = 1.0) -> ExperimentTable:
    """A6: register blocking (BCSR) vs delta compression for MB matrices.

    The plug-and-play extension in action: BCSR is registered as an
    alternative MB-class optimization. It wins on naturally blocked
    matrices (fill ~1: index traffic / r^2, dense tiles) and loses on
    pointwise patterns (fill-in inflates both traffic and compute) —
    which is why the paper's lightweight pool uses delta compression.
    """
    from ..kernels import baseline_kernel, pool_kernel

    model = AnalyticModel(machine)
    base = baseline_kernel()
    table = ExperimentTable(
        experiment_id="ablation-bcsr",
        title=(
            f"BCSR vs delta compression on {machine.codename} "
            "(speedup over baseline; BCSR fill ratio)"
        ),
        headers=("matrix", "delta+vec", "bcsr 2x2", "fill"),
    )
    from ..matrices.generators import fem_like, random_uniform

    cases = (
        ("consph", named_matrix("consph", scale=scale)),
        ("fem-block2", fem_like(_scaled(60_000, scale), block=2,
                                neighbors=12, reach=30, seed=61)),
        ("fem-block4", fem_like(_scaled(60_000, scale), block=4,
                                neighbors=8, reach=20, seed=62)),
        ("pointwise", random_uniform(_scaled(60_000, scale),
                                     nnz_per_row=10.0, seed=63)),
    )
    delta = pool_kernel("compression")
    for name, csr in cases:
        r0 = model.run(base, base.preprocess(csr))
        rd = model.run(delta, delta.preprocess(csr))
        bcsr = pool_kernel("bcsr")
        data = bcsr.preprocess(csr)
        rb = model.run(bcsr, data)
        table.add(
            name,
            float(rd.gflops / r0.gflops),
            float(rb.gflops / r0.gflops),
            float(data.fill_ratio),
        )
    table.note(
        "expected: bcsr wins at fill ~1 (block-structured), delta wins "
        "on pointwise patterns"
    )
    return table


def _scaled(base: int, scale: float, lo: int = 2_000) -> int:
    return max(int(base * scale), lo)


def format_landscape(machine: MachineSpec = KNC,
                     scale: float = 1.0) -> ExperimentTable:
    """A7: the format zoo across structural archetypes.

    Why the paper's pool is CSR-based: whole-format replacements (BCSR,
    SELL-C-sigma) each win only on the archetype they were designed for
    and lose badly elsewhere, whereas CSR + cheap per-bottleneck
    tweaks is robust. Speedups over the scalar CSR baseline.
    """
    from ..kernels import baseline_kernel, merged_pool_kernel, pool_kernel

    model = AnalyticModel(machine)
    base = baseline_kernel()
    table = ExperimentTable(
        experiment_id="ablation-formats",
        title=(
            f"Format landscape on {machine.codename} "
            "(speedup over scalar CSR baseline)"
        ),
        headers=("matrix", "archetype", "csr+vec", "delta+vec",
                 "bcsr 2x2", "sell-8", "best"),
    )
    from ..matrices.generators import fem_like, power_law

    cases = (
        ("consph", "regular FEM", named_matrix("consph", scale=scale)),
        ("fem-block2", "blocked FEM",
         fem_like(_scaled(60_000, scale), block=2, neighbors=12,
                  reach=30, seed=71)),
        ("poisson3Db", "scattered", named_matrix("poisson3Db",
                                                 scale=scale)),
        ("powerlaw", "heavy-tailed",
         power_law(_scaled(80_000, scale), avg_deg=8.0, alpha=2.0,
                   seed=72)),
        ("webbase-1M", "short rows", named_matrix("webbase-1M",
                                                  scale=scale)),
    )
    from ..kernels import ConfiguredSpMV, SpMVConfig

    vec = ConfiguredSpMV(SpMVConfig(vectorize=True))
    for name, archetype, csr in cases:
        r0 = model.run(base, base.preprocess(csr))
        row = [name, archetype]
        results = {}
        for label, kernel in (
            ("csr+vec", vec),
            ("delta+vec", merged_pool_kernel(("compression",))),
            ("bcsr 2x2", pool_kernel("bcsr")),
            ("sell-8", pool_kernel("sell-c-sigma")),
        ):
            r = model.run(kernel, kernel.preprocess(csr))
            results[label] = r.gflops / r0.gflops
            row.append(float(results[label]))
        row.append(max(results, key=results.get))
        table.add(*row)
    table.note(
        "expected: no single format wins everywhere — the premise of "
        "both the paper's adaptivity and its CSR-based pool"
    )
    return table


def architecture_sensitivity(matrix_name: str = "poisson3Db",
                             scale: float = 1.0) -> ExperimentTable:
    """A8: counterfactual machines — where does the ML class come from?

    The paper's architecture-adaptivity claim, probed directly: starting
    from KNC, sweep the two latency-hiding parameters (miss latency and
    per-thread MLP) toward Broadwell-like values and watch the detected
    class set of a scattered matrix migrate from {ML} to bandwidth-bound
    — the same migration the paper observes between its platforms.
    """
    from ..core import classify_from_bounds, format_classes

    csr = named_matrix(matrix_name, scale=scale)
    table = ExperimentTable(
        experiment_id="ablation-sensitivity",
        title=(
            f"Counterfactual-KNC sensitivity for {matrix_name}: "
            "miss latency and MLP vs detected classes"
        ),
        headers=("mem latency (ns)", "llc hit (ns)", "MLP",
                 "P_ML/P_CSR", "classes"),
    )
    sweep = (
        (310.0, 210.0, 1.6),    # stock KNC
        (310.0, 210.0, 6.0),    # KNC with OoO-grade MLP
        (150.0, 100.0, 1.6),    # KNC with multicore-grade latency
        (90.0, 35.0, 10.0),     # Broadwell-grade memory system
    )
    for latency, llc_lat, mlp in sweep:
        machine = KNC.with_(
            mem_latency_ns=latency, llc_hit_latency_ns=llc_lat, mlp=mlp
        )
        bounds = AnalyticModel(machine).bounds(csr)
        table.add(
            float(latency), float(llc_lat), float(mlp),
            float(bounds.p_ml / bounds.p_csr),
            format_classes(classify_from_bounds(bounds)),
        )
    table.note(
        "expected: the ML headroom shrinks monotonically as the memory "
        "system approaches multicore characteristics — the class is a "
        "property of the (matrix, machine) pair, not the matrix alone"
    )
    return table


def tree_ablation(machine: MachineSpec = KNC, corpus_count: int = 80,
                  seed: int = 2017) -> ExperimentTable:
    """A4: tree depth and feature-set complexity vs accuracy."""
    table = ExperimentTable(
        experiment_id="ablation-tree",
        title=f"Decision-tree ablation on {machine.codename} (10-fold CV)",
        headers=("features", "max_depth", "exact (%)", "partial (%)"),
    )
    subsets = (
        ("O(1) only", O1_FEATURES),
        ("paper O(N)", PAPER_ON_SUBSET),
        ("paper O(NNZ)", PAPER_ONNZ_SUBSET),
    )
    for label, subset in subsets:
        X, Y, _ = corpus_features_and_labels(
            machine, train_count=corpus_count, seed=seed,
            feature_names=tuple(subset),
        )
        for depth in (2, 4, 12):
            res = k_fold(
                X, Y, k=min(10, corpus_count),
                tree_factory=lambda d=depth: DecisionTree(
                    max_depth=d, min_samples_leaf=2
                ),
            )
            table.add(label, depth, float(100 * res.exact_match),
                      float(100 * res.partial_match))
    table.note(
        "expected: accuracy saturates with depth; richer features help; "
        "O(1) features alone are not enough"
    )
    return table
