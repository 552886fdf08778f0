import csv
import io
import json
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy
import pytest
import scipy

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
    code, _, err = run_cli(["gen", "ba", "--n", "10",
                            "--out", str(tmp_path / "x.tsv")])
    assert code == 1
    assert err == "error: family 'ba' needs m\n"


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


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_compute_writes_an_undefined_stderr_as_null(tri_path):
    # one sampled node leaves the standard error undefined
    code, stdout, _ = run_cli([
        "compute", str(tri_path), "sample", "--lambda-bound", "0.5",
        "--node-budget", "1"])
    assert code == 0
    payload = json.loads(stdout, parse_constant=_reject_constant)
    assert payload["diagnostics"]["stderr"] is None
    assert payload["result"] > 0.0


def test_compute_sample_needs_lambda(tri_path):
    code, _, _ = run_cli(["compute", str(tri_path), "sample"])
    assert code == 1


def test_compute_unknown_method_exits_1(tri_path):
    code, _, _ = run_cli(["compute", str(tri_path), "nonsense"])
    assert code == 1


def test_cost_warning_to_stderr(tri_path):
    code, _, err = run_cli([
        "compute", str(tri_path), "sample", "--epsilon", "0.3",
        "--lambda-bound", "0.9998", "--walks", "1", "--node-budget", "1"])
    assert code == 0
    assert err == ("warning: derived truncation length ell=26034 implies "
                   "walks of up to 52066 steps; consider --ell or a tighter "
                   "--lambda-bound\n")


def test_main_restores_showwarning(tri_path, path5_path):
    original = warnings.showwarning
    code, _, err = run_cli([
        "compute", str(tri_path), "sample", "--epsilon", "0.3",
        "--lambda-bound", "0.9998", "--walks", "1", "--node-budget", "1"])
    assert (code, err.startswith("warning:")) == (0, True)
    assert warnings.showwarning is original
    code, _, err = run_cli(["compute", str(path5_path), "exact"])
    assert (code, err.startswith("error:")) == (2, True)
    assert warnings.showwarning is original


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
        "--seed", "3"])
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
        "sample": {"lambda_bound": 0.95, "ell": 8, "walks": 2000},
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


def test_sweep_json_writes_a_non_finite_value_as_null(tmp_path, tri_path,
                                                     monkeypatch):
    monkeypatch.setattr(dk.sampler, "sample_disagreement",
                        lambda g, params: dk.DisagreementEstimate(
                            "sample", float("nan"), {}))
    cfg = {"trials": 1, "epsilons": [0.25], "methods": ["sample"],
           "graphs": [{"path": str(tri_path), "name": "tri"}],
           "sample": {"lambda_bound": 0.5}}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    code, stdout, _ = run_cli(["sweep", str(cfg_path), "--output", "json"])
    assert code == 0
    rows = json.loads(stdout, parse_constant=_reject_constant)
    assert rows[0]["value"] is None
    assert rows[0]["rel_error_vs_exact"] is None


def test_sweep_empty_config_is_usage_error(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text("{}")
    code, _, _ = run_cli(["sweep", str(cfg_path)])
    assert code == 1
    code, _, _ = run_cli(["sweep", str(tmp_path / "missing.json")])
    assert code == 1


@pytest.mark.parametrize("entry, named", [
    ({"family": "ba", "n": 10}, "m"),
    ({"family": "gsw", "n": 10, "p": 0.5, "q": 3}, "q"),
    ({"family": "lattice", "n": 10}, "lattice"),
])
def test_sweep_family_spec_is_checked(tmp_path, entry, named):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"methods": ["exact"], "graphs": [entry]}))
    code, _, err = run_cli(["sweep", str(cfg_path)])
    assert code == 1
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("change", [
    {"trials": "x"}, {"seed": 1.5}, {"seed": "7"}, {"trials": True},
    {"graphs": [{"family": "psfw", "g": 2, "seed": "x"}]},
])
def test_sweep_non_integer_scalars_are_usage_errors(tmp_path, change):
    cfg = {"methods": ["exact"], "graphs": [{"family": "psfw", "g": 2}],
           **change}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["sweep", str(cfg_path)])
    assert code == 1 and err.startswith("error:") and "integer" in err


@pytest.mark.parametrize("cfg, named", [
    ([1], "object"),
    ({"methods": ["exact"], "graphs": [{"family": "psfw", "g": 2}],
      "epsilons": ["x"]}, "epsilons"),
    ({"methods": ["exact"], "graphs": [{"family": "psfw", "g": 2}],
      "epsilons": 0.25}, "epsilons"),
    ({"methods": ["exact"], "graphs": [1]}, "graph entry"),
    ({"methods": ["sample"], "graphs": [{"family": "psfw", "g": 2}],
      "sample": {"walk": 50, "lambda_bound": 0.9}}, "walk"),
    ({"methods": ["simulate"], "graphs": [{"family": "psfw", "g": 2}],
      "simulate": {"walks_per_target": 5}}, "walks_per_target"),
    ({"methods": ["approx"], "graphs": [{"family": "psfw", "g": 2}],
      "approx": [1]}, "approx"),
    ({"methods": ["simulate"], "graphs": [{"family": "psfw", "g": 2}],
      "simulate": {"truncation_cap": 5}}, "truncation_cap"),
    ({"methods": ["sample"], "graphs": [{"family": "psfw", "g": 2}],
      "sample": {"lambda_bound": 0.9, "reuse_walks": False}}, "reuse_walks"),
    ({"methods": ["sample"], "graphs": [{"family": "psfw", "g": 2}],
      "sample": {"lambda_bound": 0.9, "reuse_walks": 1}}, "reuse_walks"),
    ({"methods": ["sample"], "graphs": [{"family": "psfw", "g": 2}],
      "sample": {"lambda_bound": 0.9, "reuse_walks": "yes"}}, "reuse_walks"),
])
def test_sweep_configs_of_the_wrong_shape_are_usage_errors(tmp_path, cfg,
                                                          named):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["sweep", str(cfg_path)])
    assert code == 1 and err.startswith("error:") and named in err


def test_sweep_sections_take_every_option_key():
    """The section check accepts every key a sweep cell reads."""
    cfg = {method: {key: None for key in keys}
           for method, (_, keys) in cli.SWEEP_METHODS.items()}
    cli._check_sections(cfg)
    assert set(cli.SWEEP_METHODS) == set(cli.METHODS)
    with pytest.raises(dk.UsageError, match="allow_bipartite"):
        cli._check_sections({"exact": {"allow_bipartite": True}})


#: option key -> the value type of its ``compute`` flag
_OPTION_TYPES = {
    "ell": int, "walks": int, "node_budget": int, "max_cg_iters": int,
    "burn_in": int, "horizon": int, "truncation_cap": int,
    "walks_per_target": int, "lambda_bound": float, "oversample": float,
    "kappa": float, "allow_bipartite": bool,
}
#: per type, JSON values of another type
_WRONG_VALUES = {int: ["x", 1.5, True], float: ["x", True]}


def test_sweep_option_types_come_from_the_compute_flags():
    assert {key: kind for key, (_, kind) in cli.OPTIONS.items()} == \
        _OPTION_TYPES
    assert {key for _, keys in cli.METHODS.values()
            for key in keys} == set(_OPTION_TYPES)
    # each method's compute flags parse to its options, of these types
    parser = cli.build_parser()
    for method, (_, keys) in cli.METHODS.items():
        argv = ["compute", "g.tsv", method]
        for key in keys:
            flag, kind = cli.OPTIONS[key]
            argv += [flag] if kind is bool else [flag, "3"]
        options = cli._method_options(parser.parse_args(argv))
        assert {key: type(value) for key, value in options.items()} == \
            {key: _OPTION_TYPES[key] for key in keys}
    # an integer is a number too
    cli._check_sections({"sample": {"lambda_bound": 1},
                         "approx": {"oversample": 2, "kappa": 3}})


@pytest.mark.parametrize("method, key, value", [
    (method, key, value)
    for method, (_, keys) in cli.SWEEP_METHODS.items() for key in keys
    for value in _WRONG_VALUES[_OPTION_TYPES[key]]])
def test_sweep_option_values_of_the_wrong_type_are_usage_errors(
        tmp_path, method, key, value):
    cfg = {"methods": [method], "graphs": [{"family": "psfw", "g": 2}],
           method: {key: value}}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["sweep", str(cfg_path)])
    assert code == 1 and err.startswith("error:")
    assert f"{method!r} option {key!r}" in err and "Traceback" not in err


def test_sweep_null_options_run_as_not_given(tmp_path):
    base = {"methods": ["sample", "approx", "mc"], "trials": 1,
            "epsilons": [0.5], "graphs": [{"family": "psfw", "g": 2}],
            "sample": {"lambda_bound": 0.9, "ell": 3, "walks": 50},
            "mc": {"walks_per_target": 20, "truncation_cap": 500}}
    nulls = {**base,
             "sample": {**base["sample"], "node_budget": None},
             "approx": {key: None for key in cli.METHODS["approx"].keys},
             "mc": {**base["mc"], "burn_in": None, "horizon": None}}
    values = []
    for cfg in (base, nulls):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        code, stdout, err = run_cli(["sweep", str(cfg_path), "--output",
                                     "json"])
        assert code == 0, err
        values.append([row["value"] for row in json.loads(stdout)])
    assert values[0] == values[1]


def test_missing_graph_files_exit_1(tmp_path):
    missing = str(tmp_path / "nofile.tsv")
    code, _, err = run_cli(["compute", missing, "exact"])
    assert code == 1 and err.startswith("error:") and "nofile.tsv" in err
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"methods": ["exact"],
                                    "graphs": [{"path": "nofile.tsv"}]}))
    code, _, err = run_cli(["sweep", str(cfg_path)])
    assert code == 1 and err.startswith("error:") and "nofile.tsv" in err


@pytest.mark.parametrize("argv, params", [
    (["ba", "--n", "30", "--m", "2", "--m0", "4"], {"n": 30, "m": 2,
                                                    "m0": 4}),
    (["ba", "--n", "30", "--m", "2", "--p", "0.5"], {"n": 30, "m": 2}),
    (["apollonian", "--n", "30"], {"n": 30, "d": 2}),
    (["gsw", "--n", "30", "--p", "0.5"], {"n": 30, "p": 0.5}),
    (["psfw", "--g", "2"], {"g": 2}),
])
def test_gen_takes_the_family_params_from_the_table(tmp_path, argv, params):
    out = tmp_path / "g.tsv"
    code, stdout, err = run_cli(["gen", *argv, "--seed", "3",
                                 "--out", str(out)])
    assert code == 0, err
    sidecar = json.loads((tmp_path / "g.tsv.spec.json").read_text())
    assert sidecar == {"family": argv[0], "params": params, "seed": 3}
    expected = dk.generate(dk.GeneratorSpec(argv[0], params, 3))
    assert json.loads(stdout)["fingerprint"] == graph_fingerprint(expected)


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
                "--node-budget", "5"],
               {"lambda_bound": 0.9, "ell": 6, "walks": 400,
                "node_budget": 5},
               lambda g, eps, seed: dk.sample_disagreement(g, dk.derive_params(
                   g.n, eps, 0.9, seed=seed, ell=6, walks_per_length=400,
                   node_budget=5)).value),
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
        "sample": {"lambda_bound": 0.9998, "walks": 1, "node_budget": 1}}))
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
    # the approx cell's CG solve reads the variable
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "methods": ["approx"], "trials": 1, "epsilons": [0.5],
        "graphs": [{"path": str(tri_path)}]}))
    code, _, err = run_cli(["sweep", str(cfg_path)])
    assert code == 1 and "DISAGREE_THREADS" in err


def test_sweep_runs_its_cells_on_the_calling_thread(tmp_path, monkeypatch):
    threads = []
    real = cli._run_cell

    def recording(*args):
        threads.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(cli, "_run_cell", recording)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "methods": ["exact", "sample", "mc"], "trials": 2,
        "epsilons": [0.5, 0.3], "graphs": [{"family": "psfw", "g": 2}],
        "sample": {"lambda_bound": 0.9, "ell": 3, "walks": 50},
        "mc": {"walks_per_target": 20}}))
    code, _, err = run_cli(["sweep", str(cfg_path)])
    assert code == 0, err
    assert threads == [threading.get_ident()] * 8


def test_sweep_rows_do_not_depend_on_disagree_threads(tmp_path,
                                                     monkeypatch):
    # CG blocks of 16 columns on psfw g=3 (42 nodes), so that two threads
    # split each approx solve
    monkeypatch.setattr(dk.sparsify, "CG_BLOCK_BYTES", 8 * 42 * 16)
    solver_threads = set()
    real = dk.sparsify._cg_block

    def recording(*args):
        solver_threads.add(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(dk.sparsify, "_cg_block", recording)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "methods": ["exact", "approx", "sample"], "trials": 2,
        "epsilons": [0.5, 0.3], "graphs": [{"family": "psfw", "g": 3}],
        "sample": {"lambda_bound": 0.9, "ell": 3, "walks": 50}}))
    outputs = []
    for threads in (1, 2):
        monkeypatch.setenv("DISAGREE_THREADS", str(threads))
        solver_threads.clear()
        code, stdout, err = run_cli(["sweep", str(cfg_path), "--output",
                                     "json"])
        assert code == 0, err
        assert len(solver_threads) == threads
        rows = json.loads(stdout)
        for row in rows:
            assert row.pop("wall_time_s") > 0.0
        outputs.append(rows)
    assert outputs[0] == outputs[1]
    assert [row["method"] for row in outputs[0]].count("approx") == 4


@pytest.mark.parametrize("command, flag", [
    *(("kemeny", flag) for flag in (
        ["--allow-bipartite"], ["--oversample-c", "1.5"],
        ["--kappa-override", "2"], ["--max-cg-iters", "5"],
        ["--burn-in", "5"], ["--horizon", "5"], ["--cap", "7"],
        ["--output", "json"])),
    ("compute", ["--output", "json"])])
def test_flags_no_method_of_the_command_reads_are_usage_errors(
        tri_path, command, flag):
    method = ["exact"] if command == "compute" else ["--method", "exact"]
    code, stdout, err = run_cli([command, str(tri_path), *method, *flag])
    assert code == 1 and stdout == ""
    assert err == f"error: unrecognized arguments: {' '.join(flag)}\n"


@pytest.mark.parametrize("argv, flags", [
    (["compute", "exact", "--walks", "5"], "--walks"),
    (["compute", "approx", "--lambda-bound", "0.5"], "--lambda-bound"),
    (["compute", "simulate", "--cap", "7"], "--cap"),
    (["compute", "mc", "--ell", "3", "--oversample-c", "2"],
     "--ell, --oversample-c"),
    (["compute", "sample", "--lambda-bound", "0.5", "--allow-bipartite"],
     "--allow-bipartite"),
    (["kemeny", "--method", "exact", "--walks", "5"], "--walks"),
    (["kemeny", "--method", "closed-form", "--psfw-g", "3", "--ell", "3"],
     "--ell"),
])
def test_flags_the_chosen_method_does_not_read_are_usage_errors(
        tri_path, argv, flags):
    command, method, *rest = argv
    code, stdout, err = run_cli([command, str(tri_path), method, *rest])
    method = rest[0] if command == "kemeny" else method
    assert code == 1 and stdout == ""
    assert err == f"error: {command} {method} does not read {flags}\n"


def test_the_reuse_walks_switch_is_gone(tri_path):
    for command, method in (("compute", ["sample"]),
                            ("kemeny", ["--method", "sample"])):
        code, stdout, err = run_cli([command, str(tri_path), *method,
                                     "--lambda-bound", "0.5",
                                     "--reuse-walks"])
        assert code == 1 and stdout == ""
        assert err == "error: unrecognized arguments: --reuse-walks\n"


def test_a_sweep_may_still_say_reuse_walks_true(tmp_path):
    """The one walk mode's old switch, as the benchmark's config spells it:
    true or null runs the same cells as no key."""
    base = {"methods": ["sample"], "trials": 2, "epsilons": [0.5, 0.3],
            "graphs": [{"family": "psfw", "g": 2}],
            "sample": {"lambda_bound": 0.9, "ell": 4, "walks": 50}}
    outputs = []
    for reuse in ("absent", True, None):
        cfg = json.loads(json.dumps(base))
        if reuse != "absent":
            cfg["sample"]["reuse_walks"] = reuse
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        code, stdout, err = run_cli(["sweep", str(cfg_path), "--output",
                                     "json"])
        assert code == 0, err
        rows = json.loads(stdout)
        for row in rows:
            assert row.pop("wall_time_s") > 0.0
        outputs.append(rows)
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0]) == 4


@pytest.mark.parametrize("budget", [0, -5])
def test_a_given_node_budget_below_one_is_refused(tri_path, budget):
    with pytest.raises(dk.DomainError, match="node budget"):
        dk.derive_params(10, 0.25, 0.5, node_budget=budget)
    code, stdout, err = run_cli(["compute", str(tri_path), "sample",
                                 "--lambda-bound", "0.5", "--node-budget",
                                 str(budget)])
    assert code == 2 and stdout == ""
    assert err == f"error: node budget must be >= 1, got {budget}\n"


def test_default_compute_records_pin_their_params(tri_path):
    """Options not given take the library defaults, and a switch reads
    false."""
    mc_params = {"burn_in": None, "horizon": 100_000, "noise": "gaussian",
                 "seed": 0, "truncation_cap": 1_000,
                 "walks_per_target": 1_000}
    expected = {
        "exact": {"allow_bipartite": False},
        "approx": {"epsilon": 0.25, "oversample": 1.0, "seed": 0},
        "mc": mc_params,
        "simulate": mc_params,
        "sample --lambda-bound 0.5": {
            "ell": 2, "epsilon": 0.25, "lambda_bound": 0.5,
            "lambda_bound_source": "given", "node_budget": 3,
            "seed": 0, "walks": 459},
    }
    for method, params in expected.items():
        code, stdout, err = run_cli(["compute", str(tri_path),
                                     *method.split()])
        assert code == 0, err
        assert json.loads(stdout)["params"] == params


def test_a_derived_ell_beyond_the_cap_exits_3(tmp_path, tri_path):
    lam = 0.999999999  # derives ell of about 10^10
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "methods": ["sample"], "trials": 1, "epsilons": [0.25],
        "graphs": [{"path": str(tri_path)}], "sample": {"lambda_bound": lam}}))
    for argv in (["compute", str(tri_path), "sample", "--lambda-bound",
                  str(lam)],
                 ["kemeny", str(tri_path), "--method", "sample",
                  "--lambda-bound", str(lam)],
                 ["sweep", str(cfg_path)]):
        code, stdout, err = run_cli(argv)
        assert code == 3 and stdout == ""
        assert err.startswith("error: the derived truncation length")
        assert "Traceback" not in err and err.count("\n") == 1


def test_walk_budget_quadruples_when_epsilon_halves():
    fixed = dk.derive_params(10_000, 0.3, 0.6, ell=5)
    half = dk.derive_params(10_000, 0.15, 0.6, ell=5)
    ratio = half.walks_per_length / fixed.walks_per_length
    assert ratio == pytest.approx(4.0, rel=1e-3)
    # with the derived truncation length the budget grows at least that fast
    free = dk.derive_params(10_000, 0.3, 0.6)
    free_half = dk.derive_params(10_000, 0.15, 0.6)
    assert free_half.walks_per_length / free.walks_per_length >= 4.0


@pytest.mark.parametrize("command", ["compute", "kemeny"])
@pytest.mark.parametrize("flag, source", [
    (["--lambda-bound", "0.5"], "given"),
    (["--estimate-gap"], "estimated"),
])
def test_sample_params_state_the_lambda_bound_source(tri_path, command,
                                                     flag, source):
    method = ["sample"] if command == "compute" else ["--method", "sample"]
    code, stdout, err = run_cli([
        command, str(tri_path), *method, "--ell", "4", "--walks", "200",
        *flag])
    assert code == 0, err
    params = json.loads(stdout)["params"]
    assert params["lambda_bound_source"] == source
    if source == "given":
        assert params["lambda_bound"] == 0.5


def test_run_records_state_their_versions(tri_path):
    expected = {"disagree_kit": dk.__version__, "numpy": numpy.__version__,
                "scipy": scipy.__version__}
    for argv in (["compute", str(tri_path), "exact"],
                 ["kemeny", str(tri_path), "--method", "exact"],
                 ["kemeny", "--method", "closed-form", "--psfw-g", "3"]):
        code, stdout, err = run_cli(argv)
        assert code == 0, err
        assert json.loads(stdout)["versions"] == expected
