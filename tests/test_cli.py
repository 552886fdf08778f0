import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

import disagree_kit as dk
from disagree_kit import cli
from disagree_kit.cli import graph_fingerprint, main
from disagree_kit.threads import worker_count

TRI = "0\t1\n1\t2\n0\t2\n"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def tri_path(tmp_path):
    path = tmp_path / "tri.tsv"
    path.write_text(TRI)
    return path


def test_gen_psfw_counts(tmp_path):
    out = tmp_path / "psfw3.tsv"
    code, stdout, _ = run_cli(["gen", "psfw", "--g", "3",
                               "--out", str(out)])
    assert code == 0
    info = json.loads(stdout)
    assert (info["n"], info["m"]) == (42, 81)
    g = dk.load_edge_list(out)
    assert (g.n, g.m) == (42, 81)
    sidecar = json.loads((tmp_path / "psfw3.tsv.spec.json").read_text())
    assert sidecar["family"] == "psfw" and sidecar["params"]["g"] == 3


def test_gen_determinism(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for out in (a, b):
        code, _, _ = run_cli(["gen", "ba", "--m", "2", "--n", "2000",
                              "--seed", "7", "--out", str(out)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_apollonian_edge_count(tmp_path):
    out = tmp_path / "ap.tsv"
    code, stdout, _ = run_cli(["gen", "apollonian", "--d", "2", "--n", "5",
                               "--seed", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(stdout)["m"] == 9


def test_gen_resource_error(tmp_path):
    code, _, err = run_cli(["gen", "psfw", "--g", "20",
                            "--out", str(tmp_path / "x.tsv")])
    assert code == 3
    assert "error:" in err


def test_gen_missing_args(tmp_path):
    code, _, _ = run_cli(["gen", "ba", "--n", "10",
                          "--out", str(tmp_path / "x.tsv")])
    assert code == 1


def test_compute_exact_zachary(zachary_path):
    code, stdout, _ = run_cli(["compute", str(zachary_path), "exact"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["method"] == "exact"
    assert abs(payload["result"] - 1.287) < 1e-3
    assert payload["delta"] == payload["result"]
    required = {"command", "graph_fingerprint", "method", "params", "result",
                "wall_time_s", "seed", "timestamp"}
    assert required <= set(payload)
    assert len(payload["per_node"]) == 34


def test_compute_sample_smoke(tri_path):
    code, stdout, _ = run_cli([
        "compute", str(tri_path), "sample", "--epsilon", "0.25",
        "--lambda-bound", "0.5", "--seed", "1"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["method"] == "sample"
    assert payload["params"]["epsilon"] == 0.25
    assert payload["params"]["lambda_bound"] == 0.5
    assert 0.0 < payload["result"] < 10.0
    assert payload["delta_hat"] == payload["result"]


def test_compute_bipartite_exits_2(path5_path):
    code, _, err = run_cli(["compute", str(path5_path), "exact"])
    assert code == 2
    assert "error:" in err


def test_compute_sample_needs_lambda(tri_path):
    code, _, _ = run_cli(["compute", str(tri_path), "sample"])
    assert code == 1


def test_compute_unknown_method_exits_1(tri_path):
    code, _, _ = run_cli(["compute", str(tri_path), "nonsense"])
    assert code == 1


def test_cost_warning_to_stderr(tri_path):
    code, _, err = run_cli([
        "compute", str(tri_path), "sample", "--epsilon", "0.3",
        "--lambda-bound", "0.9998", "--walks", "1", "--node-budget", "1",
        "--reuse-walks"])
    assert code == 0
    assert err == ("warning: derived truncation length ell=26034 implies "
                   "walks of up to 52066 steps; consider --ell or a tighter "
                   "--lambda-bound\n")


def test_fingerprint_stable_under_reordering():
    a = dk.load_edge_list(io.StringIO("0 1\n1 2\n0 2\n"))
    b = dk.load_edge_list(io.StringIO("2 0\n0 1\n2 1\n"))
    assert graph_fingerprint(a) == graph_fingerprint(b)


def test_kemeny_exact_triangle(tri_path):
    code, stdout, _ = run_cli(["kemeny", str(tri_path), "--method", "exact"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["method"] == "kemeny"
    assert abs(payload["result"] - 8.0 / 3.0) < 1e-9


def test_kemeny_closed_form():
    code, stdout, _ = run_cli(["kemeny", "--method", "closed-form",
                               "--psfw-g", "12"])
    assert code == 0
    assert abs(json.loads(stdout)["result"] / 1.15e6 - 1.0) < 5e-3


def test_kemeny_sample_smoke(tri_path):
    code, stdout, _ = run_cli([
        "kemeny", str(tri_path), "--method", "sample", "--epsilon", "0.25",
        "--lambda-bound", "0.5", "--ell", "6", "--walks", "5000",
        "--reuse-walks", "--seed", "3"])
    assert code == 0
    assert abs(json.loads(stdout)["result"] - 8.0 / 3.0) < 0.15


def test_sweep_csv_schema(tmp_path, tri_path):
    cfg = {
        "seed": 5,
        "trials": 2,
        "epsilons": [0.3, 0.25],
        "methods": ["exact", "sample"],
        "graphs": [{"path": str(tri_path), "name": "tri"},
                   {"family": "psfw", "g": 2, "name": "psfw2"}],
        "sample": {"lambda_bound": 0.95, "ell": 8, "walks": 2000,
                   "reuse_walks": True},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    code, stdout, _ = run_cli(["sweep", str(cfg_path)])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(stdout)))
    assert set(rows[0]) == {"graph", "N", "M", "method", "epsilon", "trial",
                            "value", "rel_error_vs_exact", "wall_time_s"}
    # 2 graphs x (1 exact row + 2 eps x 2 trials sample rows)
    assert len(rows) == 2 * (1 + 4)
    exact_rows = [r for r in rows if r["method"] == "exact"]
    assert all(float(r["rel_error_vs_exact"]) == 0.0 for r in exact_rows)
    sample_rows = [r for r in rows if r["method"] == "sample"]
    assert all(float(r["rel_error_vs_exact"]) < 0.5 for r in sample_rows)
    # deterministic ordering and reproducibility (times aside)
    code2, stdout2, _ = run_cli(["sweep", str(cfg_path)])
    strip = lambda text: [
        {k: v for k, v in row.items() if k != "wall_time_s"}
        for row in csv.DictReader(io.StringIO(text))]
    assert strip(stdout2) == strip(stdout)


def test_sweep_json_output(tmp_path, tri_path):
    cfg = {"trials": 1, "epsilons": [0.25], "methods": ["exact"],
           "graphs": [{"path": str(tri_path), "name": "tri"}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    code, stdout, _ = run_cli(["sweep", str(cfg_path), "--output", "json"])
    assert code == 0
    rows = json.loads(stdout)
    assert rows[0]["graph"] == "tri"
    assert rows[0]["value"] == pytest.approx(8.0 / 9.0)


def test_sweep_empty_config_is_usage_error(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text("{}")
    code, _, _ = run_cli(["sweep", str(cfg_path)])
    assert code == 1
    code, _, _ = run_cli(["sweep", str(tmp_path / "missing.json")])
    assert code == 1


def test_sweep_exact_cell_reuses_up_front_value(tmp_path, tri_path,
                                                monkeypatch):
    calls = []
    real = dk.spectral.exact_disagreement

    def counting(g, *args, **kwargs):
        calls.append(g.n)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(dk.spectral, "exact_disagreement", counting)
    cfg = {"trials": 1, "epsilons": [0.25], "methods": ["exact"],
           "graphs": [{"path": str(tri_path), "name": "tri"},
                      {"family": "psfw", "g": 2, "name": "psfw2"}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    code, stdout, _ = run_cli(["sweep", str(cfg_path), "--output", "json"])
    assert code == 0
    assert sorted(calls) == [3, 15]  # once per graph, not again per cell
    rows = json.loads(stdout)
    assert [r["rel_error_vs_exact"] for r in rows] == [0.0, 0.0]
    assert all(r["wall_time_s"] > 0.0 for r in rows)


# method -> (compute flags, the same options as a sweep config section,
#            the direct library call at (graph, epsilon, seed))
_FRONT_ENDS = {
    "exact": ([], {},
              lambda g, eps, seed: dk.exact_disagreement(g).delta),
    "sample": (["--lambda-bound", "0.9", "--ell", "6", "--walks", "400",
                "--node-budget", "5", "--reuse-walks"],
               {"lambda_bound": 0.9, "ell": 6, "walks": 400,
                "node_budget": 5, "reuse_walks": True},
               lambda g, eps, seed: dk.sample_disagreement(g, dk.derive_params(
                   g.n, eps, 0.9, seed=seed, ell=6, walks_per_length=400,
                   node_budget=5, reuse_walks=True)).value),
    "approx": (["--oversample-c", "1.5"], {"oversample": 1.5},
               lambda g, eps, seed: dk.approx_disagreement(
                   g, eps, seed, oversample=1.5).value),
    "mc": (["--walks", "40", "--cap", "3000"],
           {"walks_per_target": 40, "truncation_cap": 3000},
           lambda g, eps, seed: dk.simulate_mc_disagreement(g, dk.MCConfig(
               truncation_cap=3000, walks_per_target=40, seed=seed)).value),
    "simulate": (["--horizon", "2000", "--burn-in", "30"],
                 {"horizon": 2000, "burn_in": 30},
                 lambda g, eps, seed: dk.simulate_noisy_degroot(
                     g, dk.MCConfig(horizon=2000, burn_in=30,
                                    seed=seed)).value),
}


@pytest.mark.parametrize("method", list(_FRONT_ENDS))
def test_compute_sweep_cell_and_library_agree(zachary_path, method):
    flags, options, library = _FRONT_ENDS[method]
    eps, seed = 0.5, 13
    code, stdout, err = run_cli(["compute", str(zachary_path), method,
                                 "--epsilon", str(eps), "--seed", str(seed),
                                 *flags])
    assert code == 0, err
    payload = json.loads(stdout)
    assert payload["method"] == method and payload["seed"] == seed
    estimate_key = "delta" if method == "exact" else "delta_hat"
    assert payload[estimate_key] == payload["result"]
    g = dk.load_edge_list(zachary_path)
    cell, wall = cli._run_cell(g, method, eps, seed, {method: options})
    assert wall > 0.0
    assert payload["result"] == cell == library(g, eps, seed)


def test_sweep_rejects_unknown_method_before_any_work(tmp_path, tri_path,
                                                      monkeypatch):
    calls = []
    monkeypatch.setattr(dk.spectral, "exact_disagreement",
                        lambda *args, **kwargs: calls.append(args))
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "methods": ["exact", "smaple"],
        "graphs": [{"path": str(tri_path), "name": "tri"}]}))
    code, _, err = run_cli(["sweep", str(cfg_path)])
    assert code == 1 and "smaple" in err
    assert calls == []


def test_sweep_keeps_graphs_with_the_same_name_apart(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "methods": ["exact"],
        "graphs": [{"family": "psfw", "g": 2}, {"family": "psfw", "g": 3}]}))
    code, stdout, _ = run_cli(["sweep", str(cfg_path), "--output", "json"])
    assert code == 0
    rows = json.loads(stdout)
    assert [r["graph"] for r in rows] == ["psfw", "psfw"]
    assert [(r["N"], r["M"]) for r in rows] == [(15, 27), (42, 81)]
    assert rows[0]["value"] == pytest.approx(1.1635, abs=1e-4)
    assert rows[1]["value"] == pytest.approx(1.3183, abs=1e-4)


def test_sweep_warns_about_costly_ell(tmp_path, tri_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "trials": 1, "epsilons": [0.3], "methods": ["sample"],
        "graphs": [{"path": str(tri_path), "name": "tri"}],
        "sample": {"lambda_bound": 0.9998, "walks": 1, "node_budget": 1,
                   "reuse_walks": True}}))
    code, _, err = run_cli(["sweep", str(cfg_path)])
    assert code == 0
    assert "warning:" in err and "ell=26034" in err
    # a sweep names its config keys, not the compute flags
    assert '"ell" or a tighter "lambda_bound"' in err and "--" not in err


def test_worker_count_reads_disagree_threads(monkeypatch):
    monkeypatch.setenv("DISAGREE_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.delenv("DISAGREE_THREADS")
    assert 1 <= worker_count() <= 8


@pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
def test_worker_count_rejects_bad_values(monkeypatch, tmp_path, tri_path,
                                         value):
    monkeypatch.setenv("DISAGREE_THREADS", value)
    with pytest.raises(dk.UsageError):
        worker_count()
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "methods": ["exact"], "graphs": [{"path": str(tri_path)}]}))
    code, _, err = run_cli(["sweep", str(cfg_path)])
    assert code == 1 and "DISAGREE_THREADS" in err


def test_walk_budget_quadruples_when_epsilon_halves():
    fixed = dk.derive_params(10_000, 0.3, 0.6, ell=5)
    half = dk.derive_params(10_000, 0.15, 0.6, ell=5)
    ratio = half.walks_per_length / fixed.walks_per_length
    assert ratio == pytest.approx(4.0, rel=1e-3)
    # with the derived truncation length the budget grows at least that fast
    free = dk.derive_params(10_000, 0.3, 0.6)
    free_half = dk.derive_params(10_000, 0.15, 0.6)
    assert free_half.walks_per_length / free.walks_per_length >= 4.0
