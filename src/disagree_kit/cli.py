"""Command-line entry point: generate graphs, compute disagreement by any
method, estimate Kemeny constants, and run sweep experiments.

``OPTIONS`` and ``METHODS`` are the one table of method options: the
``compute``/``kemeny`` flags, their run records and the sweep's section
check are all built from it. A sweep runs its cells one after another on
the calling thread.

Exit codes: 0 success, 1 usage (or an unreadable input file), 2 domain,
3 resource, 4 convergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy
import scipy

from . import __version__, dynamics, generators, sampler, sparsify, spectral
from .errors import CostWarning, DisagreeKitError, ResourceError, UsageError
from .graph import WeightedGraph, edge_list_text, load_edge_list
from .rng import TAG_CELL, derive_seed

EPSILON_GRID = (0.35, 0.3, 0.25)
SWEEP_COLUMNS = ("graph", "N", "M", "method", "epsilon", "trial", "value",
                 "rel_error_vs_exact", "wall_time_s")


def graph_fingerprint(g: WeightedGraph) -> str:
    """Content hash of the canonical sorted edge list; insensitive to the
    edge order of the original source."""
    return hashlib.sha256(edge_list_text(g).encode()).hexdigest()


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage errors are 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="disagree-kit",
                     description="Opinion disagreement toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a model network")
    gen.add_argument("family", choices=list(generators.FAMILIES))
    gen.add_argument("--n", type=int, help="target node count")
    gen.add_argument("--m", type=int, help="edges per new node (ba)")
    gen.add_argument("--m0", type=int, help="seed-cycle size (ba)")
    gen.add_argument("--d", type=int, default=2,
                     help="clique dimension (apollonian)")
    gen.add_argument("--p", type=float, help="edge-removal probability (gsw)")
    gen.add_argument("--g", type=int, help="iteration count (psfw)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output edge-list path")

    comp = sub.add_parser("compute", help="compute disagreement")
    comp.add_argument("graph", help="edge-list file")
    comp.add_argument("method", choices=list(METHODS))
    _add_method_flags(comp, METHODS)

    kem = sub.add_parser("kemeny", help="Kemeny constant of the two-step walk")
    kem.add_argument("graph", nargs="?", help="edge-list file")
    kem.add_argument("--method", required=True,
                     choices=["exact", "sample", "closed-form"])
    kem.add_argument("--psfw-g", type=int,
                     help="pseudofractal iteration count (closed-form)")
    _add_method_flags(kem, ["sample"])

    sweep = sub.add_parser("sweep", help="run an error/runtime sweep")
    sweep.add_argument("config", help="JSON sweep configuration")
    sweep.add_argument("--output", choices=["csv", "json"], default="csv")
    return parser


def _add_method_flags(p: argparse.ArgumentParser, methods) -> None:
    """The flags of the run and option keys ``methods`` read; a flag two
    keys share is added once."""
    for flag, kind in dict.fromkeys(
            OPTIONS[key] for method in methods
            for key in METHODS[method].run + METHODS[method].keys):
        if kind is bool:
            p.add_argument(flag, action="store_true")
        else:
            p.add_argument(flag, type=kind)


#: how ``compute``/``kemeny`` and a sweep config spell the knobs that
#: shorten a costly derived ``ell``.
_FLAG_ADVICE = "--ell or a tighter --lambda-bound"
_SWEEP_ADVICE = ('"ell" or a tighter "lambda_bound" in the sweep\'s "sample" '
                 "section")


def _sample_params(g: WeightedGraph, options: dict, eps: float, seed: int,
                   advice: str = _FLAG_ADVICE) -> sampler.SampleParams:
    """Sampler parameters from the ``sample`` options; the spectral bound is
    estimated when ``lambda_bound`` is missing. ``advice`` names the knobs
    in the cost warning."""
    lam = options.get("lambda_bound")
    if lam is None:
        lam = sampler.estimate_gap_bound(g, seed=seed)
    params = sampler.derive_params(
        g.n, eps, lam, seed=seed, ell=options.get("ell"),
        walks_per_length=options.get("walks"),
        node_budget=options.get("node_budget"))
    if params.ell > sampler.ELL_COST_WARNING:
        warnings.warn(
            f"derived truncation length ell={params.ell} implies walks of "
            f"up to {2 * (params.ell - 1)} steps; consider {advice}",
            CostWarning, stacklevel=2)
    return params


def _sample_record_params(est, options: dict) -> dict:
    """The sampler's ``params`` JSON, stating whether ``lambda_bound`` was
    given or estimated by ``estimate_gap_bound`` (a Rayleigh quotient, not
    a bound)."""
    source = "given" if "lambda_bound" in options else "estimated"
    return {**est.params, "lambda_bound_source": source}


#: option key -> (its ``compute``/``kemeny`` flag, its value type); a bool
#: option is a switch that defaults to False. Sample's ``walks`` and mc's
#: ``walks_per_target`` share ``--walks``. The first three are run keys,
#: which no sweep section takes: a sweep sets epsilon and seed per cell.
OPTIONS = {
    "epsilon": ("--epsilon", float),
    "seed": ("--seed", int),
    "estimate_gap": ("--estimate-gap", bool),
    "allow_bipartite": ("--allow-bipartite", bool),
    "lambda_bound": ("--lambda-bound", float),
    "ell": ("--ell", int),
    "walks": ("--walks", int),
    "node_budget": ("--node-budget", int),
    "burn_in": ("--burn-in", int),
    "horizon": ("--horizon", int),
    "truncation_cap": ("--cap", int),
    "walks_per_target": ("--walks", int),
}


class Method(NamedTuple):
    """An estimator, called as (graph, options, epsilon, seed), the
    ``OPTIONS`` keys its options may hold, and the run keys it reads; a
    key not given takes the library's default (epsilon 0.25, seed 0)."""

    estimate: Callable
    keys: tuple[str, ...]
    run: tuple[str, ...] = ()


#: method name -> its estimator and option keys. Estimators are looked up
#: through their module at call time, so patching a module attribute
#: reaches every caller.
METHODS = {
    "exact": Method(lambda g, opts, eps, seed: spectral.exact_disagreement(
        g, allow_bipartite_pseudoinverse=opts.get("allow_bipartite", False)),
        ("allow_bipartite",)),
    "sample": Method(lambda g, opts, eps, seed: sampler.sample_disagreement(
        g, _sample_params(g, opts, eps, seed)),
        ("lambda_bound", "ell", "walks", "node_budget"),
        ("epsilon", "seed", "estimate_gap")),
    "approx": Method(lambda g, opts, eps, seed: sparsify.approx_disagreement(
        g, eps, seed), (), ("epsilon", "seed")),
    "mc": Method(lambda g, opts, eps, seed: dynamics.simulate_mc_disagreement(
        g, dynamics.MCConfig(seed=seed, **opts)),
        ("truncation_cap", "walks_per_target"), ("seed",)),
    "simulate": Method(lambda g, opts, eps, seed:
                       dynamics.simulate_noisy_degroot(
                           g, dynamics.MCConfig(seed=seed, **opts)),
                       ("burn_in", "horizon"), ("seed",)),
}

#: the sweep's view of ``METHODS``: its exact cells reuse one up-front
#: solve, which takes no options, and its cost warning names config keys.
SWEEP_METHODS = {
    **METHODS, "exact": METHODS["exact"]._replace(keys=()),
    "sample": METHODS["sample"]._replace(
        estimate=lambda g, opts, eps, seed: sampler.sample_disagreement(
            g, _sample_params(g, opts, eps, seed, _SWEEP_ADVICE)))}


def _method_options(args, method: Method) -> dict:
    """The ``compute``/``kemeny`` flags of ``method``'s option keys as
    options; an int or float flag not given is left out. Any other flag
    of ``OPTIONS`` given is a usage error, since the method would ignore
    it. ``args.epsilon`` and ``args.seed`` are set to the values the
    method reads; the seed is None where it reads none."""
    if args.method == "sample":
        if args.lambda_bound is not None and args.estimate_gap:
            raise UsageError("give either --lambda-bound or --estimate-gap")
        if args.lambda_bound is None and not args.estimate_gap:
            raise UsageError("sampling needs --lambda-bound or --estimate-gap")
    values = {flag: getattr(args, flag[2:].replace("-", "_"), None)
              for flag, _ in OPTIONS.values()}
    read = {OPTIONS[key][0] for key in method.run + method.keys}
    stray = [flag for flag, value in values.items() if flag not in read
             and value is not None and value is not False]
    if stray:
        raise UsageError(f"{args.command} {args.method} does not read "
                         f"{', '.join(stray)}")
    args.epsilon = 0.25 if args.epsilon is None else args.epsilon
    args.seed = (args.seed or 0) if "seed" in method.run else None
    options = {key: values[OPTIONS[key][0]] for key in method.keys}
    return {k: v for k, v in options.items() if v is not None}


def _write_record(g: WeightedGraph | None, method: str, params: dict,
                  result: float, t0: float, seed: int | None,
                  extra: dict | None = None) -> None:
    """Print the run record of a ``compute``/``kemeny`` run that began at
    ``t0``. Without a graph its fingerprint is empty; ``extra`` is the
    estimator's own JSON, whose keys give way to the record's; ``versions``
    names the package, numpy and scipy versions that produced it."""
    wall = time.perf_counter() - t0
    _write_json({
        **(extra or {}),
        "command": " ".join(sys.argv[1:]),
        "graph_fingerprint": "" if g is None else graph_fingerprint(g),
        "method": method,
        "params": params,
        "result": result,
        "wall_time_s": wall,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "versions": {"disagree_kit": __version__, "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })


def _strict(obj):
    """``obj`` as strict JSON values: a non-finite float, which JSON cannot
    spell, becomes None and any other non-JSON scalar a float."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    if obj is None or isinstance(obj, (str, int)):
        return obj
    obj = float(obj)
    return obj if math.isfinite(obj) else None


def _write_json(obj) -> None:
    json.dump(_strict(obj), sys.stdout, indent=2, sort_keys=True,
              allow_nan=False)
    sys.stdout.write("\n")


# -- subcommands -------------------------------------------------------

def cmd_gen(args) -> int:
    _, required, optional = generators.FAMILIES[args.family]
    spec = generators.GeneratorSpec(
        args.family, {k: getattr(args, k) for k in required + optional
                      if getattr(args, k) is not None}, args.seed)
    g = generators.generate(spec)
    out = Path(args.out)
    out.write_text(edge_list_text(g), encoding="utf-8")
    sidecar = out.with_name(out.name + ".spec.json")
    sidecar.write_text(json.dumps(spec.to_json(), indent=2, sort_keys=True)
                       + "\n", encoding="utf-8")
    print(json.dumps({"out": str(out), "n": g.n, "m": g.m,
                      "fingerprint": graph_fingerprint(g)}, sort_keys=True))
    return 0


def cmd_compute(args) -> int:
    g = load_edge_list(args.graph)
    options = _method_options(args, METHODS[args.method])
    t0 = time.perf_counter()
    est = METHODS[args.method].estimate(g, options, args.epsilon, args.seed)
    if args.method == "exact":
        params = options
    elif args.method == "sample":
        params = _sample_record_params(est, options)
    else:
        params = est.params
    _write_record(g, args.method, params, est.value, t0, args.seed,
                  est.to_json())
    return 0


def cmd_kemeny(args) -> int:
    reads = METHODS["sample"] if args.method == "sample" else Method(None, ())
    options = _method_options(args, reads)
    if args.method == "closed-form":
        if args.psfw_g is None:
            raise UsageError("kemeny --method closed-form needs --psfw-g")
        t0 = time.perf_counter()
        value = generators.psfw_kemeny_closed_form(args.psfw_g)
        _write_record(None, "kemeny", {"variant": "closed-form",
                                       "g": args.psfw_g}, value, t0, None)
        return 0
    if args.graph is None:
        raise UsageError("kemeny exact/sample needs a graph file")
    g = load_edge_list(args.graph)
    if args.method == "exact":
        t0 = time.perf_counter()
        summary = spectral.decompose(g)
        value = spectral.exact_kemeny_two_step(summary)
        _write_record(g, "kemeny", {"variant": "exact"}, value, t0, None, {
            "diagnostics": {"solver": summary.solver,
                            "elimination_rounds": summary.elimination_rounds}})
        return 0
    t0 = time.perf_counter()
    est = sampler.sample_kemeny_two_step(
        g, _sample_params(g, options, args.epsilon, args.seed))
    _write_record(g, "kemeny", {"variant": "sample",
                                **_sample_record_params(est, options)},
                  est.value, t0, args.seed)
    return 0


# -- sweep -------------------------------------------------------------

def _config_int(cfg: dict, key: str, default: int) -> int:
    """A JSON integer from a sweep config; anything else is a usage error."""
    value = cfg.get(key, default)
    if type(value) is not int:  # bool is an int subclass, not an integer
        raise UsageError(f"sweep config {key!r} must be an integer, "
                         f"got {value!r}")
    return value


def _config_list(cfg: dict, key: str, default: list) -> list:
    """A JSON list from a sweep config; anything else is a usage error."""
    value = cfg.get(key, default)
    if not isinstance(value, list):
        raise UsageError(f"sweep config {key!r} must be a list, "
                         f"got {value!r}")
    return value


#: the JSON values a sweep option of each option type takes (bool is an
#: int subclass, so types are matched exactly) and how an error names them
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _check_sections(cfg: dict) -> None:
    """Each method section must be an object of that method's option keys,
    each value of its ``OPTIONS`` type or null (not given): a
    misspelt key would otherwise be ignored silently, a mistyped value
    fail deep inside an estimator."""
    for method, (_, keys, _) in SWEEP_METHODS.items():
        section = cfg.get(method, {})
        if not isinstance(section, dict):
            raise UsageError(f"sweep config {method!r} must be an object, "
                             f"got {section!r}")
        unknown = sorted(set(section) - set(keys))
        if unknown:
            raise UsageError(f"sweep config {method!r} has unknown keys "
                             f"{unknown}; it takes {list(keys)}")
        for key, value in section.items():
            types, name = _JSON_TYPES[OPTIONS[key][1]]
            if value is not None and type(value) not in types:
                raise UsageError(f"sweep config {method!r} option {key!r} "
                                 f"must be {name}, got {value!r}")


def _sweep_graphs(cfg: dict, base: Path) -> list[tuple[str, WeightedGraph]]:
    out = []
    for entry in _config_list(cfg, "graphs", []):
        if not isinstance(entry, dict):
            raise UsageError(f"sweep graph entry must be an object, "
                             f"got {entry!r}")
        if "path" in entry:
            path = Path(entry["path"])
            if not path.is_absolute():
                path = base / path
            out.append((entry.get("name", path.stem), load_edge_list(path)))
        elif "family" in entry:
            spec = generators.GeneratorSpec(
                entry["family"],
                {k: v for k, v in entry.items() if k not in
                 ("family", "seed", "name")},
                _config_int(entry, "seed", cfg.get("seed", 0)))
            name = entry.get("name", entry["family"])
            out.append((name, generators.generate(spec)))
        else:
            raise UsageError(f"sweep graph entry needs 'path' or 'family': "
                             f"{entry}")
    return out


def _run_cell(g: WeightedGraph, method: str, eps: float, seed: int,
              cfg: dict) -> tuple[float, float]:
    """One sweep cell through ``SWEEP_METHODS``: (value, wall time)."""
    t0 = time.perf_counter()
    value = SWEEP_METHODS[method].estimate(g, cfg.get(method, {}), eps,
                                           seed).value
    return value, time.perf_counter() - t0


def run_sweep(cfg: dict, base: Path) -> list[dict]:
    if not isinstance(cfg, dict):
        raise UsageError(f"sweep config must be a JSON object, got {cfg!r}")
    methods = _config_list(cfg, "methods", [])
    for method in methods:
        if not isinstance(method, str) or method not in METHODS:
            raise UsageError(f"unknown sweep method {method!r}")
    # bench/workloads.py still writes "reuse_walks": true until the next
    # benchmark change (ROADMAP item 1), which drops it and this
    sample = cfg.get("sample")
    if isinstance(sample, dict) and "reuse_walks" in sample:
        sample = dict(sample)
        reuse = sample.pop("reuse_walks")
        if reuse is not True and reuse is not None:
            raise UsageError("sweep config 'sample' option 'reuse_walks' can "
                             "only be true: independent walks were removed")
        cfg = {**cfg, "sample": sample}
    _check_sections(cfg)
    # a null option is not given: every estimator sees the key absent
    cfg = {**cfg, **{m: {k: v for k, v in cfg[m].items() if v is not None}
                     for m in SWEEP_METHODS if m in cfg}}
    epsilons = _config_list(cfg, "epsilons", list(EPSILON_GRID))
    for eps in epsilons:
        if type(eps) not in (int, float):  # bool is no epsilon either
            raise UsageError(f"sweep epsilons must be numbers, got {eps!r}")
    trials = _config_int(cfg, "trials", 20)
    root_seed = _config_int(cfg, "seed", 0)
    graphs = _sweep_graphs(cfg, base)
    if not graphs or not methods:
        raise UsageError("sweep config needs non-empty 'graphs' and 'methods'")

    exact_cells = []  # by graph position: two graphs may share a name
    for _, g in graphs:
        try:
            exact_cells.append(_run_cell(g, "exact", None, 0, cfg))
        except ResourceError:  # no exact route within its caps: no reference
            if "exact" in methods:
                raise
            exact_cells.append(None)
    # a graph without a reference gets null where another graph has one
    with_rel = any(v is not None for v in exact_cells)

    rows = []
    for gi, (name, g) in enumerate(graphs):
        for mi, method in enumerate(methods):
            if method == "exact":  # reuse the up-front value and its time
                cells = [(None, 0, exact_cells[gi])]
            else:
                cells = [(eps, trial, _run_cell(
                    g, method, eps, derive_seed(root_seed, TAG_CELL, gi, mi,
                                                ei + 1, trial), cfg))
                         for ei, eps in enumerate(epsilons)
                         for trial in range(trials)]
            for eps, trial, (value, wall) in cells:
                row = {
                    "graph": name,
                    "N": g.n,
                    "M": g.m,
                    "method": method,
                    "epsilon": "" if eps is None else eps,
                    "trial": trial,
                    "value": value,
                    "wall_time_s": wall,
                }
                if with_rel:
                    ref = exact_cells[gi] and exact_cells[gi][0]
                    row["rel_error_vs_exact"] = (
                        None if ref is None else abs(value - ref) / abs(ref))
                rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    cfg_path = Path(args.config)
    try:
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"sweep config is not valid JSON: {exc}") from None
    rows = run_sweep(cfg, cfg_path.parent)
    if args.output == "json":
        _write_json(rows)
        return 0
    with_rel = rows and "rel_error_vs_exact" in rows[0]
    columns = [c for c in SWEEP_COLUMNS
               if with_rel or c != "rel_error_vs_exact"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())
    return 0


COMMANDS = {"gen": cmd_gen, "compute": cmd_compute, "kemeny": cmd_kemeny,
            "sweep": cmd_sweep}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # catch_warnings restores showwarning and the filters on exit
        with warnings.catch_warnings():
            warnings.simplefilter("always")

            def to_stderr(message, category, filename, lineno, file=None,
                          line=None):
                print(f"warning: {message}", file=sys.stderr)

            warnings.showwarning = to_stderr
            return COMMANDS[args.command](args)
    except (DisagreeKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a missing or unreadable input file is a usage error
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
