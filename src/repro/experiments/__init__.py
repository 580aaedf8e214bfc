"""Experiment harness: one module per table/figure of the evaluation (§5).

Every experiment is regenerable from the command line
(``python -m repro.cli <experiment>``) and from the pytest-benchmark
harness under ``benchmarks/``. Runs are cached per (scheduler, stimulus,
platform) within a harness instance so Figures 5, 6 and 7 — which the
paper derives from the same test sequences — share simulations.
"""

from repro.experiments.registry import (
    Experiment,
    ExperimentResult,
    all_experiments,
    experiment_names,
    get_experiment,
    run_experiment,
)
from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    run_sequence,
)
from repro.experiments import (
    parallel,
    ext_batching,
    ext_capacity,
    ext_cluster,
    ext_estimates,
    ext_hetero,
    ext_interconnect,
    ext_mixes,
    ext_schedulers,
    ext_seeds,
    ext_utilization,
    fig2_modes,
    fig4_taskgraph,
    fig5_response,
    fig6_tail,
    fig7_deadlines,
    fig8_breakdown,
    fig9_ablation,
    fig10_alexnet,
    fig11_throughput,
    overhead,
    report,
    table1,
    table2,
    table3,
)

__all__ = [
    "Experiment",
    "ExperimentResult",
    "ExperimentSettings",
    "RunCache",
    "all_experiments",
    "experiment_names",
    "get_experiment",
    "run_experiment",
    "run_sequence",
    "parallel",
    "ext_batching",
    "ext_capacity",
    "ext_cluster",
    "ext_estimates",
    "ext_hetero",
    "ext_interconnect",
    "ext_mixes",
    "ext_schedulers",
    "ext_seeds",
    "ext_utilization",
    "fig2_modes",
    "fig4_taskgraph",
    "fig5_response",
    "fig6_tail",
    "fig7_deadlines",
    "fig8_breakdown",
    "fig9_ablation",
    "fig10_alexnet",
    "fig11_throughput",
    "overhead",
    "report",
    "table1",
    "table2",
    "table3",
]
