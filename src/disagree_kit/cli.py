"""Command-line entry point: generate graphs, compute disagreement by any
method, estimate Kemeny constants, and run sweep experiments.

Exit codes: 0 success, 1 usage, 2 domain, 3 resource, 4 convergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import dynamics, generators, sampler, sparsify, spectral
from .errors import CostWarning, DisagreeKitError, UsageError
from .graph import WeightedGraph, edge_list_text, load_edge_list
from .rng import TAG_CELL, derive_seed
from .threads import worker_count

EPSILON_GRID = (0.35, 0.3, 0.25)
SWEEP_COLUMNS = ("graph", "N", "M", "method", "epsilon", "trial", "value",
                 "rel_error_vs_exact", "wall_time_s")


def graph_fingerprint(g: WeightedGraph) -> str:
    """Content hash of the canonical sorted edge list; insensitive to the
    edge order of the original source."""
    return hashlib.sha256(edge_list_text(g).encode()).hexdigest()


@dataclass
class RunRecord:
    """One ``compute``/``kemeny`` run; ``extra`` is the estimator's own JSON,
    whose keys give way to the record's."""

    command: str
    graph_fingerprint: str
    method: str
    params: dict
    result: float
    wall_time_s: float
    seed: int | None
    timestamp: str
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            **self.extra,
            "command": self.command,
            "graph_fingerprint": self.graph_fingerprint,
            "method": self.method,
            "params": self.params,
            "result": self.result,
            "wall_time_s": self.wall_time_s,
            "seed": self.seed,
            "timestamp": self.timestamp,
        }


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage errors are 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="disagree-kit",
                     description="Opinion disagreement toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a model network")
    gen.add_argument("family", choices=["ba", "apollonian", "gsw", "psfw"])
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
    _add_method_flags(comp)

    kem = sub.add_parser("kemeny", help="Kemeny constant of the two-step walk")
    kem.add_argument("graph", nargs="?", help="edge-list file")
    kem.add_argument("--method", required=True,
                     choices=["exact", "sample", "closed-form"])
    kem.add_argument("--psfw-g", type=int,
                     help="pseudofractal iteration count (closed-form)")
    _add_method_flags(kem)

    sweep = sub.add_parser("sweep", help="run an error/runtime sweep")
    sweep.add_argument("config", help="JSON sweep configuration")
    sweep.add_argument("--output", choices=["csv", "json"], default="csv")
    return parser


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda-bound", type=float, dest="lambda_bound")
    p.add_argument("--estimate-gap", action="store_true")
    p.add_argument("--ell", type=int)
    p.add_argument("--walks", type=int)
    p.add_argument("--node-budget", type=int)
    p.add_argument("--reuse-walks", action="store_true")
    p.add_argument("--oversample-c", type=float, default=1.0)
    p.add_argument("--max-cg-iters", type=int)
    p.add_argument("--kappa-override", type=float)
    p.add_argument("--burn-in", type=int)
    p.add_argument("--horizon", type=int, default=100_000)
    p.add_argument("--cap", type=int, default=1_000,
                   help="hitting-walk truncation cap")
    p.add_argument("--allow-bipartite", action="store_true")
    p.add_argument("--output", choices=["json"], default="json")


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
        node_budget=options.get("node_budget"),
        reuse_walks=options.get("reuse_walks", False))
    if params.ell > sampler.ELL_COST_WARNING:
        warnings.warn(
            f"derived truncation length ell={params.ell} implies walks of "
            f"up to {2 * (params.ell - 1)} steps; consider {advice}",
            CostWarning, stacklevel=2)
    return params


def _pick(options: dict, *keys: str) -> dict:
    return {k: options[k] for k in keys if k in options}


def _mc_config(options: dict, seed: int) -> dynamics.MCConfig:
    return dynamics.MCConfig(seed=seed, **_pick(
        options, "burn_in", "horizon", "truncation_cap", "walks_per_target"))


#: method name -> (graph, options, epsilon, seed) -> estimate. Options use
#: the sweep config's keys; estimators are looked up through their module
#: at call time, so patching a module attribute reaches every caller.
METHODS = {
    "exact": lambda g, opts, eps, seed: spectral.exact_disagreement(
        g, allow_bipartite_pseudoinverse=opts.get("allow_bipartite", False)),
    "sample": lambda g, opts, eps, seed: sampler.sample_disagreement(
        g, _sample_params(g, opts, eps, seed)),
    "approx": lambda g, opts, eps, seed: sparsify.approx_disagreement(
        g, eps, seed, **_pick(opts, "oversample", "kappa", "max_cg_iters")),
    "mc": lambda g, opts, eps, seed: dynamics.simulate_mc_disagreement(
        g, _mc_config(opts, seed)),
    "simulate": lambda g, opts, eps, seed: dynamics.simulate_noisy_degroot(
        g, _mc_config(opts, seed)),
}

#: the sweep's view of ``METHODS``: its cost warning names config keys.
SWEEP_METHODS = {**METHODS, "sample": lambda g, opts, eps, seed:
                 sampler.sample_disagreement(
                     g, _sample_params(g, opts, eps, seed, _SWEEP_ADVICE))}


def _method_options(args) -> dict:
    """The ``compute``/``kemeny`` flags of ``args.method`` as its options."""
    if args.method == "sample":
        if args.lambda_bound is not None and args.estimate_gap:
            raise UsageError("give either --lambda-bound or --estimate-gap")
        if args.lambda_bound is None and not args.estimate_gap:
            raise UsageError("sampling needs --lambda-bound or --estimate-gap")
    dyn = {"burn_in": args.burn_in, "horizon": args.horizon,
           "truncation_cap": args.cap}
    options = {
        "exact": {"allow_bipartite": args.allow_bipartite},
        "sample": {"lambda_bound": args.lambda_bound, "ell": args.ell,
                   "walks": args.walks, "node_budget": args.node_budget,
                   "reuse_walks": args.reuse_walks},
        "approx": {"oversample": args.oversample_c,
                   "kappa": args.kappa_override,
                   "max_cg_iters": args.max_cg_iters},
        "mc": {**dyn, "walks_per_target": args.walks},
        "simulate": dyn,
    }[args.method]
    return {k: v for k, v in options.items() if v is not None}


def _compute_record(g: WeightedGraph, method: str, options: dict,
                    eps: float, seed: int, command: str) -> RunRecord:
    t0 = time.perf_counter()
    est = METHODS[method](g, options, eps, seed)
    wall = time.perf_counter() - t0
    params = options if method == "exact" else est.params
    return RunRecord(command, graph_fingerprint(g), method, params,
                     est.value, wall, seed, _now(), est.to_json())


def _emit_record(record: RunRecord) -> None:
    json.dump(record.to_json(), sys.stdout, indent=2, sort_keys=True,
              default=float)
    sys.stdout.write("\n")


# -- subcommands -------------------------------------------------------

def cmd_gen(args) -> int:
    family = args.family
    if family == "ba":
        if args.n is None or args.m is None:
            raise UsageError("gen ba needs --n and --m")
        spec = generators.GeneratorSpec(
            "ba", {"n": args.n, "m": args.m,
                   **({"m0": args.m0} if args.m0 is not None else {})},
            args.seed)
    elif family == "apollonian":
        if args.n is None:
            raise UsageError("gen apollonian needs --n")
        spec = generators.GeneratorSpec("apollonian",
                                        {"n": args.n, "d": args.d}, args.seed)
    elif family == "gsw":
        if args.n is None or args.p is None:
            raise UsageError("gen gsw needs --n and --p")
        spec = generators.GeneratorSpec("gsw", {"n": args.n, "p": args.p},
                                        args.seed)
    else:
        if args.g is None:
            raise UsageError("gen psfw needs --g")
        spec = generators.GeneratorSpec("psfw", {"g": args.g}, args.seed)
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
    record = _compute_record(g, args.method, _method_options(args),
                             args.epsilon, args.seed, " ".join(sys.argv[1:]))
    _emit_record(record)
    return 0


def cmd_kemeny(args) -> int:
    command = " ".join(sys.argv[1:])
    t0 = time.perf_counter()
    if args.method == "closed-form":
        if args.psfw_g is None:
            raise UsageError("kemeny --method closed-form needs --psfw-g")
        value = generators.psfw_kemeny_closed_form(args.psfw_g)
        record = RunRecord(command, "", "kemeny",
                           {"variant": "closed-form", "g": args.psfw_g},
                           value, time.perf_counter() - t0, None, _now())
        _emit_record(record)
        return 0
    if args.graph is None:
        raise UsageError("kemeny exact/sample needs a graph file")
    g = load_edge_list(args.graph)
    if args.method == "exact":
        summary = spectral.decompose(g)
        value = spectral.exact_kemeny_two_step(summary)
        record = RunRecord(command, graph_fingerprint(g), "kemeny",
                           {"variant": "exact"}, value,
                           time.perf_counter() - t0, None, _now())
    else:
        params = _sample_params(g, _method_options(args), args.epsilon,
                                args.seed)
        est = sampler.sample_kemeny_two_step(g, params)
        record = RunRecord(command, graph_fingerprint(g), "kemeny",
                           {"variant": "sample", **est.params}, est.value,
                           time.perf_counter() - t0, est.seed, _now())
    _emit_record(record)
    return 0


# -- sweep -------------------------------------------------------------

def _sweep_graphs(cfg: dict, base: Path) -> list[tuple[str, WeightedGraph]]:
    out = []
    for entry in cfg.get("graphs", []):
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
                entry.get("seed", cfg.get("seed", 0)))
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
    value = SWEEP_METHODS[method](g, cfg.get(method, {}), eps, seed).value
    return value, time.perf_counter() - t0


def _timed_exact(g: WeightedGraph) -> tuple[float, float]:
    t0 = time.perf_counter()
    value = METHODS["exact"](g, {}, None, 0).value
    return value, time.perf_counter() - t0


def run_sweep(cfg: dict, base: Path) -> list[dict]:
    methods = cfg.get("methods", [])
    for method in methods:
        if not isinstance(method, str) or method not in METHODS:
            raise UsageError(f"unknown sweep method {method!r}")
    graphs = _sweep_graphs(cfg, base)
    if not graphs or not methods:
        raise UsageError("sweep config needs non-empty 'graphs' and 'methods'")
    epsilons = cfg.get("epsilons", list(EPSILON_GRID))
    trials = int(cfg.get("trials", 20))
    root_seed = int(cfg.get("seed", 0))
    cap = int(cfg.get("dense_cap", 20_000))
    workers = worker_count()

    # indexed by graph position: two graphs may share a display name
    exact_cells = [_timed_exact(g) if g.n <= cap else None for _, g in graphs]
    with_rel = all(v is not None for v in exact_cells)

    cells = []
    for gi in range(len(graphs)):
        for mi, method in enumerate(methods):
            if method == "exact":
                cells.append((gi, method, None, 0,
                              derive_seed(root_seed, TAG_CELL, gi, mi, 0, 0)))
                continue
            for ei, eps in enumerate(epsilons):
                for trial in range(trials):
                    cells.append((gi, method, eps, trial,
                                  derive_seed(root_seed, TAG_CELL, gi, mi,
                                              ei + 1, trial)))

    def work(cell):
        gi, method, eps, _, seed = cell
        g = graphs[gi][1]
        if method == "exact":  # reuse the up-front value and its time
            return exact_cells[gi] or _timed_exact(g)
        return _run_cell(g, method, eps, seed, cfg)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(work, cells))

    rows = []
    for (gi, method, eps, trial, _), (value, wall) in zip(cells, results):
        name, g = graphs[gi]
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
            exact = exact_cells[gi][0]
            row["rel_error_vs_exact"] = abs(value - exact) / abs(exact)
        rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    cfg_path = Path(args.config)
    try:
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise UsageError(f"sweep config not found: {cfg_path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"sweep config is not valid JSON: {exc}") from None
    rows = run_sweep(cfg, cfg_path.parent)
    if args.output == "json":
        json.dump(rows, sys.stdout, indent=2, sort_keys=True, default=float)
        sys.stdout.write("\n")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            showwarning = warnings.showwarning

            def to_stderr(message, category, filename, lineno, file=None,
                          line=None):
                print(f"warning: {message}", file=sys.stderr)

            warnings.showwarning = to_stderr
            try:
                if args.command == "gen":
                    return cmd_gen(args)
                if args.command == "compute":
                    return cmd_compute(args)
                if args.command == "kemeny":
                    return cmd_kemeny(args)
                if args.command == "sweep":
                    return cmd_sweep(args)
                raise UsageError(f"unknown command {args.command!r}")
            finally:
                warnings.showwarning = showwarning
    except DisagreeKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
