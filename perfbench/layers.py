"""Per-layer metrics of the traced run, and the end-to-end metric each moves.

The layers are the package modules.  A metric is named `<subject>.<stat>`:
the subject is a module (`cascade`) or one of its public functions
(`cascade.iterate_pool`); the stat is `self_s`, `calls`, `errors`, a counter
recorded by a probe below, or `<counter>_per_s`: the counter over the
inclusive duration of the calls that recorded it.  Self time excludes the
time of wrapped callees, so work done in a public helper (the LP membership
test under `empirical_support_check`) shows on the helper.

`watch` names the function that must be called on each listed workload; a
traced run that finds it missing or uncalled fails, so a rename cannot
silently zero a layer.  `moves` is the end-to-end metric, and the workload,
that a change to the layer should move.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

MODULES = ("cli", "models", "matrices", "cascade", "spectral", "support",
           "diagnostics")
ALL = ("pool", "spectral", "tree", "semigroup")
CLI = ("pool", "spectral", "semigroup")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    moves: str                 # end-to-end metric (workload) it should move
    watch: str | None = None   # function that must be called on `workloads`
    workloads: tuple = ()


def _fn(name, unit, moves, workloads, watch=None) -> LayerMetric:
    subject = name.rsplit(".", 1)[0]
    return LayerMetric(name, unit, moves, watch or subject, workloads)


PER_LAYER = (
    _fn("cli.self_s", "s", "wall_s (all CLI workloads): argument parsing, "
        "CSV/JSON and manifest writes", CLI, watch="cli.main"),
    _fn("models.load_model.self_s", "s", "setup_s (all)", ALL),
    _fn("models.explicit_atoms.calls", "count", "wall_s (pool, tree)",
        ("pool", "tree")),
    _fn("models.explicit_atoms.self_s", "s", "wall_s (pool gen-iid3, tree)",
        ("pool", "tree")),
    _fn("cascade.iterate_pool.self_s", "s", "simulate_s (pool)", ("pool",)),
    _fn("cascade.iterate_pool.rows_per_s", "1/s", "simulate_s (pool)", ("pool",)),
    _fn("cascade.pool_to_csv.self_s", "s", "simulate_s (pool)", ("pool",)),
    _fn("cascade.pool_to_csv.bytes", "B", "simulate_s (pool)", ("pool",)),
    _fn("cascade.pool_from_csv.self_s", "s",
        "diagnose_s (pool), support_s (semigroup)", ("pool", "semigroup")),
    _fn("cascade.pool_from_csv.bytes", "B",
        "diagnose_s (pool), support_s (semigroup)", ("pool", "semigroup")),
    _fn("cascade.martingale_samples.self_s", "s", "tree_s, peak_rss_mb (tree)",
        ("tree",)),
    _fn("cascade.martingale_samples.nodes", "count",
        "tree_s, peak_rss_mb (tree)", ("tree",)),
    _fn("cascade.survival_counts.self_s", "s", "tree_s (tree)", ("tree",)),
    _fn("spectral.kappa_estimate.calls", "count", "spectrum_s (spectral)",
        ("spectral",)),
    _fn("spectral.kappa_estimate.self_s", "s", "spectrum_s (spectral)",
        ("spectral",)),
    _fn("spectral.lyapunov_estimate.self_s", "s", "spectrum_s (spectral)",
        ("spectral",)),
    _fn("spectral.find_alpha.self_s", "s", "spectrum_s (spectral)",
        ("spectral",)),
    _fn("spectral.chain_steps_per_s", "1/s", "spectrum_s (spectral)",
        ("spectral",), watch="spectral.kappa_estimate"),
    _fn("spectral.discretize_transfer.calls", "count",
        "spectrum_s (spectral, mostly gen-sing3)", ("spectral",)),
    _fn("spectral.discretize_transfer.self_s", "s",
        "spectrum_s (spectral, mostly gen-sing3)", ("spectral",)),
    _fn("spectral.transfer_eigen.self_s", "s", "spectrum_s (spectral)",
        ("spectral",)),
    _fn("spectral.transfer_eigen.residual_max", "1",
        "spectrum_s (spectral); must not rise", ("spectral",)),
    _fn("spectral.critical_exponent.self_s", "s", "spectrum_s (spectral)",
        ("spectral",)),
    _fn("spectral.critical_exponent.gap_evals", "count",
        "spectrum_s (spectral)", ("spectral",), watch="spectral.kappa_tilde"),
    _fn("support.enumerate_semigroup.calls", "count", "support_s (semigroup)",
        ("semigroup",)),
    _fn("support.enumerate_semigroup.self_s", "s", "support_s (semigroup)",
        ("semigroup",)),
    _fn("support.enumerate_semigroup.elements", "count",
        "support_s (semigroup)", ("semigroup",)),
    _fn("support.enumerate_semigroup.elements_per_s", "1/s",
        "support_s (semigroup)", ("semigroup",)),
    _fn("support.lambda_set.self_s", "s", "support_s (semigroup)",
        ("semigroup",)),
    _fn("support.lambda_stability.self_s", "s", "support_s (semigroup)",
        ("semigroup",)),
    _fn("support.cone_hull.self_s", "s", "support_s (semigroup)",
        ("semigroup",)),
    _fn("support.search_radius_witnesses.self_s", "s", "support_s (semigroup)",
        ("semigroup",)),
    _fn("support.empirical_support_check.self_s", "s",
        "support_s (semigroup, gen-sing3 pool)", ("semigroup",)),
    _fn("support.empirical_support_check.points_per_s", "1/s",
        "support_s (semigroup, gen-sing3 pool)", ("semigroup",)),
    _fn("support.membership_fractions.self_s", "s",
        "support_s (semigroup, gen-sing3 pool): one LP per sample", ("semigroup",)),
    _fn("matrices.pf_decompose.calls", "count", "support_s (semigroup)",
        ("semigroup",)),
    _fn("matrices.pf_decompose.self_s", "s", "support_s (semigroup)",
        ("semigroup",)),
    _fn("diagnostics.transform_curve.self_s", "s", "diagnose_s (pool)",
        ("pool",)),
    _fn("diagnostics.transform_curve.exp_evals", "count", "diagnose_s (pool)",
        ("pool",)),
    _fn("diagnostics.transform_curve.exp_evals_per_s", "1/s",
        "diagnose_s (pool)", ("pool",)),
    _fn("diagnostics.kill_counts.self_s", "s", "diagnose_s (pool, gen-iid3)",
        ("pool",)),
    _fn("diagnostics.decay_fit.self_s", "s", "diagnose_s (pool)", ("pool",)),
    _fn("diagnostics.small_ball_exponent.self_s", "s", "diagnose_s (pool)",
        ("pool",)),
    _fn("diagnostics.harmonic_moment.self_s", "s", "diagnose_s (pool)",
        ("pool",)),
) + tuple(
    LayerMetric(f"{m}.self_s", "s", "wall_s: the layer that dominates")
    for m in MODULES if m != "cli"
) + tuple(
    LayerMetric(f"{m}.errors", "count", "fail_ratio: exceptions raised out "
                "of the layer's calls")
    for m in MODULES
) + (
    LayerMetric("trace.overhead_s", "s", "traced minus untraced wall_s"),
    LayerMetric("trace.wall_s", "s", "wall_s of the traced pass"),
    LayerMetric("trace.spans", "count", "spans recorded in the traced pass"),
)


# ---------------------------------------------------------------------------
# Probes: counters recorded per call from the arguments and the result
# ---------------------------------------------------------------------------


def _chain_steps(a, _result):
    return {"chain_steps": 0 if a.get("s") == 0.0 else a["n"] * a["trials"]}


def _tree_nodes(a, _result):
    """Computed, not counted: trials times the expected node count of a tree
    grown to `depth` (exact for ex1 and ex2, whose N is fixed)."""
    from smoothing_lab import models

    expected_n = getattr(models.expected_n, "__wrapped__", models.expected_n)
    en = expected_n(a["spec"])
    return {"nodes": a["trials"] * sum(en ** lvl for lvl in range(a["depth"] + 1))}


PROBES = {
    "cascade.iterate_pool": lambda a, r: {"rows": a["pool"].size},
    "cascade.pool_to_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "cascade.pool_from_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "cascade.martingale_samples": _tree_nodes,
    "spectral.kappa_estimate": _chain_steps,
    "spectral.lyapunov_estimate": _chain_steps,
    "spectral.find_alpha": _chain_steps,
    "spectral.transfer_eigen": lambda a, r: {"residual_max": r.residual},
    "support.enumerate_semigroup": lambda a, r: {"elements": len(r.elements)},
    "support.empirical_support_check": lambda a, r: {"points": a["pool"].size},
    "diagnostics.transform_curve": lambda a, r: {
        "exp_evals": a["pool"].size * r.probe_directions.shape[0] * r.radii.size},
}
# counters combined by max rather than by sum
MAX_COUNTERS = ("residual_max",)
# (child, ancestor, counter): calls of child made under ancestor
NESTED_COUNTS = (("spectral.kappa_tilde", "spectral.critical_exponent",
                  "gap_evals"),)
