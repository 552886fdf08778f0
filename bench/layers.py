"""Which ``disagree_kit`` functions the traced run wraps, and how the
recorded spans and counters become the per-layer metrics.

Layers are the package's modules. Each entry below wraps a public
function at every name it is bound to (``validate`` alone is bound in five
modules), except two private ones that delimit a phase no public function
does: ``sparsify._sketched_rows`` (the sketch) and ``cli._run_cell`` (one
sweep cell).
"""

from __future__ import annotations

from collections import defaultdict

from disagree_kit import sparsify, walks

from tracer import Tracer, self_times

#: metric name -> unit, in the order they are reported.
PER_LAYER_UNITS = {
    "graph.load_s": "s",
    "graph.load_edges_per_s": "edges/s",
    "graph.validate_s": "s",
    "graph.validate_calls": "count",
    "cli.sweep_cells": "count",
    "cli.sweep_pool_busy_frac": "ratio",
    "walks.step_calls": "count",
    "walks.walker_steps": "count",
    "walks.walker_steps_per_s": "steps/s",
    "walks.engine_build_s": "s",
    "walks.engine_builds": "count",
    "rng.streams_derived": "count",
    "sampler.return_probs_s": "s",
    "sampler.return_probs_calls": "count",
    "sampler.gap_s": "s",
    "sparsify.sparsify_s": "s",
    "sparsify.m_sparse": "count",
    "sparsify.lambda_min_s": "s",
    "sparsify.sketch_s": "s",
    "sparsify.cg_s": "s",
    "sparsify.cg_iters": "count",
    "sparsify.approx_rel_err": "ratio",
    "spectral.decompose_s": "s",
    "spectral.exact_calls": "count",
    "dynamics.mc_s": "s",
    "dynamics.mc_max_trunc_rate": "ratio",
    "dynamics.simulate_s": "s",
    "dynamics.simulate_steps_per_s": "steps/s",
    "warnings_n": "count",
    "trace.overhead_s": "s",
}


def _count_edges(tracer: Tracer, args, graph) -> None:
    tracer.count("graph.edges", graph.m)


def _count_sparse_edges(tracer: Tracer, args, lap) -> None:
    tracer.count("sparsify.m_sparse", lap.m)


def _count_cg_iters(tracer: Tracer, args, result) -> None:
    tracer.count("sparsify.cg_iters", result[1])


def _record_mc(tracer: Tracer, args, est) -> None:
    tracer.peak("dynamics.mc_max_trunc_rate",
                est.diagnostics["max_truncation_rate"])


def _count_simulate_steps(tracer: Tracer, args, est) -> None:
    tracer.count("dynamics.simulate_steps",
                 est.diagnostics["burn_in_used"] + est.params["horizon"])


def instrument(tracer: Tracer) -> None:
    """Wrap every traced function; undo with ``tracer.uninstall()``."""
    fn = tracer.patch_function
    fn("disagree_kit.graph", "load_edge_list", name="graph.load_edge_list",
       after=_count_edges)
    fn("disagree_kit.graph", "validate", name="graph.validate")
    fn("disagree_kit.cli", "run_sweep", name="cli.run_sweep")
    fn("disagree_kit.cli", "_run_cell", name="cli.run_cell")
    tracer.patch_method(walks.NeighborSampler, "__init__",
                        name="walks.engine_build")
    tracer.patch_method(walks.NeighborSampler, "step", name="walks.step",
                        leaf=True, items=lambda args: len(args[1]))
    fn("disagree_kit.rng", "derive_rng", name="rng.derive_rng", leaf=True)
    for attr in ("sample_disagreement", "sample_kemeny_two_step",
                 "estimate_return_probabilities", "estimate_gap_bound"):
        fn("disagree_kit.sampler", attr, name="sampler." + attr)
    fn("disagree_kit.sparsify", "sparsify_two_step",
       name="sparsify.sparsify_two_step", after=_count_sparse_edges)
    tracer.patch_method(sparsify.SparsifiedLaplacian, "lambda_min_positive",
                        name="sparsify.lambda_min_positive")
    fn("disagree_kit.sparsify", "_sketched_rows", name="sparsify.sketch")
    fn("disagree_kit.sparsify", "laplacian_solve",
       name="sparsify.laplacian_solve", after=_count_cg_iters)
    fn("disagree_kit.sparsify", "approx_disagreement",
       name="sparsify.approx_disagreement")
    for attr in ("decompose", "exact_disagreement", "exact_kemeny_two_step"):
        fn("disagree_kit.spectral", attr, name="spectral." + attr)
    fn("disagree_kit.dynamics", "simulate_mc_disagreement",
       name="dynamics.simulate_mc_disagreement", after=_record_mc)
    fn("disagree_kit.dynamics", "simulate_noisy_degroot",
       name="dynamics.simulate_noisy_degroot", after=_count_simulate_steps)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, workers: int,
                  warnings_n: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, all but the tracing overhead.
    The error ratios read 0 until the workload's checks fill them in."""
    c = tracer.counters
    step_s = c["walks.step.time"]
    return {
        "sparsify.approx_rel_err": 0.0,
        "warnings_n": warnings_n,
        "graph.load_s": c["graph.load_edge_list.time"],
        "graph.load_edges_per_s": _ratio(c["graph.edges"],
                                         c["graph.load_edge_list.time"]),
        "graph.validate_s": c["graph.validate.time"],
        "graph.validate_calls": c["graph.validate.calls"],
        "cli.sweep_cells": c["cli.run_cell.calls"],
        "cli.sweep_pool_busy_frac": _ratio(
            c["cli.run_cell.time"], c["cli.run_sweep.time"] * workers),
        "walks.step_calls": c["walks.step.calls"],
        "walks.walker_steps": c["walks.step.items"],
        "walks.walker_steps_per_s": _ratio(c["walks.step.items"], step_s),
        "walks.engine_build_s": c["walks.engine_build.time"],
        "walks.engine_builds": c["walks.engine_build.calls"],
        "rng.streams_derived": c["rng.derive_rng.calls"],
        "sampler.return_probs_s":
            c["sampler.estimate_return_probabilities.time"],
        "sampler.return_probs_calls":
            c["sampler.estimate_return_probabilities.calls"],
        "sampler.gap_s": c["sampler.estimate_gap_bound.time"],
        "sparsify.sparsify_s": c["sparsify.sparsify_two_step.time"],
        "sparsify.m_sparse": c["sparsify.m_sparse"],
        "sparsify.lambda_min_s": c["sparsify.lambda_min_positive.time"],
        "sparsify.sketch_s": c["sparsify.sketch.time"],
        "sparsify.cg_s": c["sparsify.laplacian_solve.time"],
        "sparsify.cg_iters": c["sparsify.cg_iters"],
        "spectral.decompose_s": c["spectral.decompose.time"],
        "spectral.exact_calls": c["spectral.exact_disagreement.calls"],
        "dynamics.mc_s": c["dynamics.simulate_mc_disagreement.time"],
        "dynamics.mc_max_trunc_rate":
            tracer.maxima.get("dynamics.mc_max_trunc_rate", 0.0),
        "dynamics.simulate_s": c["dynamics.simulate_noisy_degroot.time"],
        "dynamics.simulate_steps_per_s": _ratio(
            c["dynamics.simulate_steps"],
            c["dynamics.simulate_noisy_degroot.time"]),
    }


def traced_passes(workload, seconds: float, workers: int):
    """Traced passes until ``seconds`` have elapsed, at least one; returns
    the passes, each pass's metrics and per-layer self times, and the last
    pass's spans."""
    tracer = Tracer()
    metrics, selfs, spans = [], [], []

    def around(label, call):
        return tracer.run_span("bench." + label, call, root=True)

    def record_pass():
        metrics.append(layer_metrics(tracer, workers, workload.warnings))
        selfs.append(layer_self_times(tracer))
        spans[:] = tracer.spans
        tracer.reset()
        workload.warnings = 0

    workload.warnings = 0
    instrument(tracer)
    try:
        passes = workload.measure(seconds, around, record_pass)
    finally:
        tracer.uninstall()
    return passes, metrics, selfs, spans


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time summed per layer (the span name's first component);
    leaf functions count wholly as self time of their own layer."""
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(tracer.spans, tracer.leaf_time)
    for s in tracer.spans:
        out[s.name.split(".", 1)[0]] += selfs[s.id]
    for leaf in tracer.leaf_names:
        out[leaf.split(".", 1)[0]] += tracer.counters[leaf + ".time"]
    return dict(out)
