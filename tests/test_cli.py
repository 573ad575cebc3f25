import json
import math
import os

import pytest

from talab.cli import run
from talab.config import ConfigError, hash_config, parse_config


def base_config(**overrides):
    cfg = {
        "version": "1",
        "n_weak": 2,
        "weak": {"kind": "uniform", "params": [], "support": [0, 1]},
        "strong": {"dist": {"kind": "uniform", "params": [], "support": [0, 2]}},
        "mc": {"n": 20000, "seed": 7},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_parse_minimal_ta_config():
    cfg = parse_config(base_config(mechanism={"kind": "ta"}))
    assert cfg.n_weak == 2
    assert cfg.mechanism == "ta"
    assert cfg.weak.support.hi == 1.0
    assert cfg.mc_n == 20000 and cfg.mc_seed == 7


def test_parse_reserve_semantic_error():
    with pytest.raises(ConfigError) as err:
        parse_config(base_config(mechanism={"kind": "sa_reserve", "reserve": 0.5}))
    messages = {path: msg for path, msg in err.value.errors}
    assert "mechanism.reserve" in messages
    assert "r >= v_bar" in messages["mechanism.reserve"]


def test_parse_collects_every_violation():
    bad = base_config(mechanism={"kind": "sa_reserve", "reserve": 0.5})
    bad["mystery"] = 1
    bad["mc"] = {"n": 0}
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    paths = {path for path, _ in err.value.errors}
    assert {"mystery", "mechanism.reserve", "mc.n"} <= paths


def test_parse_discrete_feasibility():
    cfg = base_config(strong={"atom": {"k": 2.0, "p": 0.4}},
                      mechanism={"kind": "ta_discrete"})
    with pytest.raises(ConfigError, match="not guaranteed"):
        parse_config(cfg)


def test_parse_unknown_solver_key(tmp_path, capsys):
    for key, value in (("fancy", True), ("method", "picard"), ("damping", 0.2),
                       ("max_iter", 1500), ("fp_tolerance", 1e-9), ("grid_size", 1000)):
        with pytest.raises(ConfigError, match=f"solver.{key}") as err:
            parse_config(base_config(solver={key: value}))
        assert err.value.errors == [(f"solver.{key}", "unknown key")]
    # the step count is set by the defect gate; the old cap's key is refused
    path = write_config(tmp_path, base_config(solver={"grid_size": 1000}))
    assert run(["solve", "--config", path, "--out-dir", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert [v["path"] for v in err["error"]["violations"]] == ["solver.grid_size"]


def test_hash_roundtrip_and_key_order():
    cfg = base_config(mechanism={"kind": "sa"})
    parsed = parse_config(cfg)
    again = parse_config(json.loads(json.dumps(parsed.raw)))
    assert parsed.config_hash == again.config_hash
    reordered = dict(reversed(list(cfg.items())))
    assert hash_config(cfg) == hash_config(reordered)
    assert hash_config(cfg) != hash_config(base_config(mechanism={"kind": "sa_reserve",
                                                                  "reserve": 1.5}))


# ---------------------------------------------------------------------------
# subcommand bundles
# ---------------------------------------------------------------------------


def test_solve_verify_bundle(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert run(["verify", "--config", path, "--out-dir", str(out)]) == 0
    files = sorted(os.listdir(out))
    stems = {f.split(".")[0] for f in files}
    assert {"best_response", "bid_function", "solve_report", "run_meta"} <= stems
    br = json.loads(next(out.glob("best_response.*.json")).read_text())
    assert br["passed"] and br["max_regret"] <= 1e-4
    bid_csv = next(out.glob("bid_function.*.csv")).read_text()
    assert bid_csv.splitlines()[0] == "v,b,b_prime"
    assert "\r" not in bid_csv and "," in bid_csv and ";" not in bid_csv.splitlines()[1]


def test_simulate_deterministic_across_runs_and_threads(tmp_path):
    cfg = base_config(mechanism={"kind": "sa"})
    path = write_config(tmp_path, cfg)
    outs = []
    for name, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        out = tmp_path / name
        assert run(["simulate", "--config", path, "--out-dir", str(out),
                    "--threads", threads]) == 0
        body = next(out.glob("simulate.*.json")).read_bytes()
        outs.append(body)
    assert outs[0] == outs[1] == outs[2]


def test_sweep_deterministic(tmp_path):
    cfg = base_config(
        strong={"family": {"kind": "slow_drain", "k": 2.0, "w_bar": 2.5, "size": 2}},
        sweep={"prop": "P8", "rule": {"kind": "constant", "value": 1.6}},
    )
    path = write_config(tmp_path, cfg)
    bodies = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["sweep", "--config", path, "--out-dir", str(out)]) == 0
        bodies.append(next(out.glob("sweep_table.*.csv")).read_bytes())
    assert bodies[0] == bodies[1]
    header = bodies[0].decode().splitlines()[0]
    assert header == "l,R_mean,R_se,S_mean,S_se,target,gap,solver_method,max_regret"


def test_seed_override_changes_results(tmp_path):
    cfg = base_config(mechanism={"kind": "sa"})
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run(["simulate", "--config", path, "--out-dir", str(out1)]) == 0
    assert run(["simulate", "--config", path, "--out-dir", str(out2),
                "--seed", "99"]) == 0
    r1 = json.loads(next(out1.glob("simulate.*.json")).read_text())
    r2 = json.loads(next(out2.glob("simulate.*.json")).read_text())
    assert r1["seed"] == 7 and r2["seed"] == 99
    assert r1["revenue"]["mean"] != r2["revenue"]["mean"]


def test_per_draw_output(tmp_path):
    cfg = base_config(mechanism={"kind": "sa"}, mc={"n": 500, "seed": 1})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run(["simulate", "--config", path, "--out-dir", str(out),
                "--per-draw"]) == 0
    draws = next(out.glob("draws.*.csv")).read_text()
    lines = draws.splitlines()
    assert lines[0] == "replicate,revenue,surplus"
    assert len(lines) == 501


def test_per_draw_rejected_for_large_n(tmp_path):
    cfg = base_config(mechanism={"kind": "sa"}, mc={"n": 20000, "seed": 1})
    path = write_config(tmp_path, cfg)
    assert run(["simulate", "--config", path, "--out-dir", str(tmp_path / "o"),
                "--per-draw"]) == 2


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_config_error_exit_and_no_outputs(tmp_path, capsys):
    cfg = base_config(mechanism={"kind": "sa_reserve", "reserve": 0.2})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run(["simulate", "--config", path, "--out-dir", str(out)]) == 2
    assert not out.exists()  # invalid configs never trigger computation
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "config"
    assert any(v["path"] == "mechanism.reserve" for v in err["error"]["violations"])


_FAMILY = {"family": {"kind": "slow_drain", "k": 2.0, "w_bar": 2.5, "size": 2}}


@pytest.mark.parametrize("command, overrides, path", [
    ("simulate", {"mechanism": {"kind": "ta_intervention", "intervention_p": 0.0}},
     "mechanism.intervention_p"),
    ("simulate", {"mechanism": {"kind": "ta_intervention", "intervention_p": 1.0}},
     "mechanism.intervention_p"),
    ("sweep", {"strong": _FAMILY, "sweep": {"prop": "S8"}}, "sweep.intervention_p"),
    ("sweep", {"strong": _FAMILY, "sweep": {"prop": "S8", "intervention_p": 1.0}},
     "sweep.intervention_p"),
    ("sweep", {"strong": _FAMILY, "sweep": {"prop": "S8", "intervention_p": 0.4}},
     "sweep.intervention_p"),   # p*k = 0.8 <= v_bar = 1
    ("sweep", {"strong": _FAMILY,
               "sweep": {"prop": "P7", "rule": {"kind": "constant", "value": 1.6}}},
     "sweep.rule"),
    ("sweep", {"strong": _FAMILY, "sweep": {"prop": "P8"}}, "sweep.rule"),
    ("simulate", {"n_weak": 1, "mechanism": {"kind": "sa"}}, "n_weak"),
    ("oa", {"n_weak": 0, "strong": None}, "strong.dist"),
    ("simulate", {"strong": {"atom": {"k": 0.9, "p": 0.9}}, "mechanism": {"kind": "ta_discrete"}},
     "strong.atom.k"),
    ("sweep", {"strong": {"family": {**_FAMILY["family"], "k": 0.9}}, "sweep": {"prop": "P6"}},
     "strong.family.k"),
    ("solve", {"n_weak": 1}, "n_weak"),
    ("verify", {"n_weak": 1}, "n_weak"),
    ("sweep", {"n_weak": -1, "strong": _FAMILY, "sweep": {"prop": "P5"}}, "n_weak"),
    # json reads NaN and Infinity; a non-finite number is refused at its path
    ("simulate", {"mechanism": {"kind": "sa_reserve", "reserve": math.nan}},
     "mechanism.reserve"),
    ("simulate", {"mechanism": {"kind": "sa"}, "mc": {"n": math.inf}}, "mc.n"),
    ("solve", {"solver": {"rk_tolerance": math.nan}}, "solver.rk_tolerance"),
], ids=["ta_intervention-p0", "ta_intervention-p1", "S8-no-p", "S8-p1", "S8-pk",
        "P7-constant", "P8-no-rule", "simulate-n_weak1", "oa-nothing-to-sell",
        "atom-k", "family-k", "solve-n_weak1", "verify-n_weak1", "P5-n_weak-1",
        "reserve-nan", "mc-n-inf", "rk_tolerance-nan"])
def test_model_rules_refused_as_config_errors(tmp_path, capsys, command, overrides, path):
    # everything decidable from the config is refused before any computation
    cfg = {k: v for k, v in base_config(**overrides).items() if v is not None}
    out = tmp_path / "out"
    assert run([command, "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert [v["path"] for v in err["error"]["violations"]] == [path]


def test_numeric_error_exit(tmp_path, capsys):
    cfg = base_config(
        strong={"family": {"kind": "fast_drain", "k": 2.0, "w_bar": 2.5, "size": 2}},
        sweep={"prop": "P6"},
        mc={"n": 10, "seed": 0},
    )
    path = write_config(tmp_path, cfg)
    assert run(["sweep", "--config", path, "--out-dir", str(tmp_path / "o")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "numeric"
    assert "drain" in err["error"]["message"]


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_failed_solve_writes_its_report(tmp_path, capsys, command):
    # a weak density with a square-root edge at v_bar: the defect gate cannot
    # be met above the step floor, so the solve stops with exit 3 and still
    # writes its solve report, with a null defect
    cfg = base_config(n_weak=3, weak={"kind": "beta_poly", "params": [1.0, 1.5],
                                      "support": [0, 1]})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert run([command, "--config", path, "--out-dir", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "numeric"
    assert "the defect gate rejected the last attempt" in err["error"]["message"]
    assert sorted(p.name.split(".")[0] for p in out.iterdir()) == ["solve_report"]
    report_path = next(out.glob("solve_report.*.json"))
    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    rep = json.loads(report_path.read_text(), parse_constant=no_constant)
    assert rep["max_ode_residual"] is None
    assert rep["accepted_steps"] > 0 and rep["rejected_residual"] > 0
    assert f"{rep['rejected_residual']} defect" in err["error"]["message"]
    assert run(["report", str(report_path)]) == 0
    text = capsys.readouterr().out
    assert "solve: failed" in text and f"{rep['rejected_residual']} defect" in text


def test_verify_failure_exit(tmp_path, capsys, monkeypatch):
    import talab.cli as cli
    from talab.equilibrium import BestResponseReport

    def failing_verify(*args, **kwargs):
        return BestResponseReport(max_regret=0.5, worst_pair=(0.5, 0.9),
                                  grid_shape=(50, 200), max_argmax_offset=40)

    monkeypatch.setattr(cli, "verify_best_response", failing_verify)
    path = write_config(tmp_path, base_config())
    code = run(["verify", "--config", path, "--out-dir", str(tmp_path / "o")])
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "verification"
    # the failing report is still written for inspection
    br = json.loads(next((tmp_path / "o").glob("best_response.*.json")).read_text())
    assert br["passed"] is False


def test_oa_rejects_two_point_strong(tmp_path):
    cfg = base_config(strong={"atom": {"k": 2.0, "p": 0.75}})
    path = write_config(tmp_path, cfg)
    assert run(["oa", "--config", path, "--out-dir", str(tmp_path / "o")]) == 2


def test_report_subcommand(tmp_path, capsys):
    cfg = base_config(mechanism={"kind": "sa"}, mc={"n": 1000, "seed": 3})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run(["simulate", "--config", path, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    result = str(next(out.glob("simulate.*.json")))
    assert run(["report", result]) == 0
    text = capsys.readouterr().out
    assert "revenue" in text and "config_hash" in text


def test_report_renders_solve_counters(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert run(["solve", "--config", path, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    report_path = next(out.glob("solve_report.*.json"))
    rep = json.loads(report_path.read_text())
    assert rep["accepted_steps"] > 0 and rep["v0"] > 0.0
    assert {"rejected_error", "rejected_band", "rejected_residual", "min_step",
            "min_step_v"} <= set(rep)
    assert run(["report", str(report_path)]) == 0
    text = capsys.readouterr().out
    assert f"steps: {rep['accepted_steps']} accepted" in text
    assert f"{rep['rejected_residual']} defect" in text
    assert f"max Gauss-point defect {rep['max_ode_residual']:.3g}" in text
    assert "series start v0" in text
