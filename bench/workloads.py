"""The two benchmark workloads.

Each workload writes its inputs with the package's own generators and
writer (``setup``), loads them (``load``), and runs passes: one pass is the
workload's timed calls, each one operation. Only after the last pass does
it compute the references its checks need (``reference``) and check every
operation's output (``check_all``), so the benchmark's own reference work
neither shares a timed region nor raises the peak memory of the passes.
See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import disagree_kit as dk
from disagree_kit import cli

import checks

EPSILON = 0.25
APPROX_EPSILON = 0.5


@dataclass
class Op:
    """One timed call: its output until checked, then its failure."""

    label: str
    seconds: float
    out: object = None
    failure: str | None = None


#: a check's verdict (None when correct) and the per-layer values it saw.
Verdict = tuple[str | None, dict[str, float]]


def subseed(seed: int, key: int) -> int:
    """Independent 32-bit seed for input or estimator ``key``."""
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


def warm_blas() -> None:
    a = np.random.default_rng(0).standard_normal((512, 512))
    np.linalg.eigh(a + a.T)
    a @ a


def write_graph(g, path: Path) -> None:
    path.write_text(dk.edge_list_text(g), encoding="utf-8")


class Workload:
    """Base of the workloads; ``name`` is the one BENCHMARK.json uses."""

    name = ""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        #: warnings the program let through since the last reset.
        self.warnings = 0

    def setup(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        raise NotImplementedError

    def run_pass(self, around: Callable) -> list[Op]:
        """One pass; ``around(label, call)`` makes each timed call."""
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def check(self, op: Op) -> Verdict:
        raise NotImplementedError

    def measure(self, seconds: float, around: Callable,
                after_pass: Callable | None = None) -> list[list[Op]]:
        """Passes until ``seconds`` have elapsed, at least one."""
        passes = []
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            passes.append(self.run_pass(around))
            if after_pass is not None:
                after_pass()
        return passes

    def check_all(self, passes: list[list[Op]]) -> list[dict[str, float]]:
        """Check every operation that returned; sets its ``failure`` and
        returns, per pass, the largest value seen of each check metric."""
        seen_per_pass = []
        for ops in passes:
            seen: dict[str, float] = {}
            for op in ops:
                if op.failure is not None:
                    continue
                try:
                    op.failure, values = self.check(op)
                except Exception as exc:  # malformed output fails its check
                    op.failure, values = (
                        f"check raised {type(exc).__name__}: {exc}", {})
                op.out = None
                for key, value in values.items():
                    seen[key] = max(seen.get(key, value), value)
            seen_per_pass.append(seen)
        return seen_per_pass

    # -- helpers -------------------------------------------------------

    def timed(self, around: Callable, label: str, call: Callable) -> Op:
        """Time ``around(label, call)``. Warnings the program lets through
        are counted, not shown."""
        start = perf_counter()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = around(label, call)
        except Exception as exc:  # a raising call is a failed operation
            return Op(label, perf_counter() - start,
                      failure=f"{type(exc).__name__}: {exc}")
        op = Op(label, perf_counter() - start, out)
        self.warnings += len(caught)
        return op

    def run_cli(self, argv: list[str]):
        """``cli.main(argv)`` with stdout parsed as JSON; warning lines the
        CLI prints to stderr are counted."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        self.warnings += sum(line.startswith("warning:")
                             for line in err.getvalue().splitlines())
        text = out.getvalue()
        return code, (json.loads(text) if code == 0 and text else None)


class GswDense(Workload):
    """Exact on gsw n=2048, then approx at eps=0.5 on gsw n=768."""

    name = "gsw-dense"

    def setup(self) -> None:
        write_graph(dk.generate_gsw(2048, 0.5, seed=subseed(self.seed, 1)),
                    self.work / "gsw2048.tsv")
        # above sparsify.DENSE_SOLVE_CAP, so lambda_min takes the LOBPCG path
        write_graph(dk.generate_gsw(768, 0.5, seed=subseed(self.seed, 2)),
                    self.work / "gsw768.tsv")
        warm_blas()

    def load(self) -> None:
        self.big = dk.load_edge_list(self.work / "gsw2048.tsv")
        self.small = dk.load_edge_list(self.work / "gsw768.tsv")
        self.approx_seed = subseed(self.seed, 3)

    def _exact(self):
        summary = dk.decompose(self.big)
        return (dk.exact_disagreement(self.big, summary).delta,
                dk.exact_kemeny_two_step(summary))

    def run_pass(self, around: Callable) -> list[Op]:
        return [self.timed(around, "exact", self._exact),
                self.timed(around, "approx",
                           lambda: dk.approx_disagreement(
                               self.small, APPROX_EPSILON,
                               seed=self.approx_seed))]

    def reference(self) -> None:
        self.big_ref = checks.dense_reference(self.big)
        self.small_delta = checks.dense_reference(self.small)[0]

    def check(self, op: Op) -> Verdict:
        if op.label == "exact":
            return checks.check_exact(*op.out, *self.big_ref), {}
        value = op.out.value
        return (checks.check_sandwich(value, self.small_delta,
                                      APPROX_EPSILON),
                {"sparsify.approx_rel_err": checks.rel_err(
                    value, self.small_delta)})


def weighted_random_graph(n: int, seed: int) -> list[tuple[int, int, float]]:
    """Connected non-bipartite weighted graph: a random Hamiltonian path,
    one chord closing a triangle, and G(n, 0.08) extra edges, with weights
    uniform in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    perm = [int(x) for x in rng.permutation(n)]
    pairs = set(zip(perm[:-1], perm[1:])) | {(perm[0], perm[2])}
    upper = np.argwhere(np.triu(rng.random((n, n)) < 0.08, k=1))
    pairs |= {(int(u), int(v)) for u, v in upper}
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    weights = rng.uniform(0.5, 2.0, size=len(edges))
    return [(u, v, float(w)) for (u, v), w in zip(edges, weights)]


class SmallSweep(Workload):
    """In-process CLI ``sweep --output json`` of all five methods."""

    name = "small-sweep"
    weighted_nodes = 40
    graphs = ("zachary", "weighted")

    def setup(self) -> None:
        write_graph(dk.load_bundled("zachary"), self.work / "zachary.tsv")
        edges = weighted_random_graph(self.weighted_nodes,
                                      subseed(self.seed, 1))
        (self.work / "weighted.tsv").write_text(
            "".join(f"{u} {v} {w!r}\n" for u, v, w in edges),
            encoding="utf-8")
        config = {
            "seed": subseed(self.seed, 2), "trials": 1, "epsilons": [EPSILON],
            "methods": ["exact", "sample", "approx", "mc", "simulate"],
            "graphs": [{"path": f"{name}.tsv", "name": name}
                       for name in self.graphs],
            "sample": {"walks": 5_000, "reuse_walks": True},
            "mc": {"walks_per_target": 500, "truncation_cap": 2_000},
            "simulate": {"horizon": 20_000},
        }
        (self.work / "sweep.json").write_text(json.dumps(config, indent=2),
                                              encoding="utf-8")
        warm_blas()

    def load(self) -> None:
        self.argv = ["sweep", str(self.work / "sweep.json"), "--output",
                     "json"]

    def run_pass(self, around: Callable) -> list[Op]:
        return [self.timed(around, "sweep", lambda: self.run_cli(self.argv))]

    def reference(self) -> None:
        self.exact = {name: checks.dense_reference(
            dk.load_edge_list(self.work / f"{name}.tsv"))[0]
            for name in self.graphs}

    def check(self, op: Op) -> Verdict:
        code, rows = op.out
        approx = [checks.rel_err(r["value"], self.exact[r["graph"]])
                  for r in rows or () if r["method"] == "approx"]
        # per graph: one exact cell + 4 methods x 1 epsilon x 1 trial
        return (checks.check_sweep(code, rows, len(self.graphs) * (1 + 4),
                                   self.exact),
                {"sparsify.approx_rel_err": max(approx, default=0.0)})


WORKLOADS = {w.name: w for w in (GswDense, SmallSweep)}
