import hashlib
import json
import math
import os
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from talab.cli import run
from talab.config import COMMANDS, KEYS, ConfigError, hash_config, parse_config
from talab.dist import DistributionSpec


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


_MIXTURE = {"kind": "mixture", "support": [0, 1],
            "params": [2, 0.5, 0, 0, 0, 1, 0.5, 2, 2, 0.5, 0.4, 0.1, 0.9]}
# 0.5 U[0, 0.4] + 0.5 U[0, 1]
_WEAK_JUMP = {"kind": "mixture", "support": [0, 1],
              "params": [2, 0.5, 0, 0, 0, 0.4, 0.5, 0, 0, 0, 1]}
_SLOW3 = {"kind": "slow_drain", "k": 2.0, "w_bar": 2.5, "size": 3}
# valid configs that together hold every config key
_FUZZ_BASES = [
    base_config(weak=_MIXTURE,
                strong={"dist": {"kind": "cosine_bump", "params": [1, 1], "support": [0, 2]}},
                mechanism={"kind": "sa_reserve", "reserve": 1.5},
                solver={"v0_fraction": 1e-4, "rk_tolerance": 1e-9, "residual_tolerance": 1e-6},
                verify={"tolerance": 1e-4}),
    base_config(n_weak=3, weak={"kind": "pw_linear", "params": [0, 0.5, 1, 1.5],
                                "support": [0, 1]},
                mechanism={"kind": "ta_intervention", "intervention_p": 0.6}),
    base_config(strong={"atom": {"k": 2.0, "p": 0.75}}, mechanism={"kind": "ta_discrete"}),
    base_config(strong={"family": {**_SLOW3, "kind": "smoothed_discrete", "atom_share": 1.0}},
                sweep={"prop": "S8", "intervention_p": 0.75}),
    base_config(strong={"family": {**_SLOW3, "kind": "split_atom", "split_p": 0.5}},
                sweep={"prop": "P7", "rule": {"kind": "block_steps", "eps": 0.5}}),
]


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaf_paths(val, path + (key,))
    elif isinstance(obj, list) and obj:
        for i, val in enumerate(obj):
            yield from _leaf_paths(val, path + (i,))
    else:
        yield path


_FUZZ_LEAVES = [(i, path) for i, cfg in enumerate(_FUZZ_BASES) for path in _leaf_paths(cfg)]
_ODD_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "x", [], [1.0], {}, math.inf, -math.inf,
                     math.nan, 2**64, 10**400, -10**400]),
    st.integers(-2**70, 2**70),
    st.floats(),
    st.text(max_size=3),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(leaf=st.sampled_from(_FUZZ_LEAVES), value=_ODD_VALUES,
       command=st.sampled_from([None, *COMMANDS]))
# the mixture's component count and a component's parameter count; then the
# family member's quadrature midpoints, which overflowed
@example(leaf=(0, ("weak", "params", 0)), value=math.inf, command=None)
@example(leaf=(0, ("weak", "params", 8)), value=-30, command=None)
@example(leaf=(3, ("strong", "family", "w_bar")), value=1e308, command="sweep")
def test_config_fuzz_raises_only_config_errors(leaf, value, command):
    # one leaf of a valid config replaced by an odd JSON value: the config is
    # accepted or refused with a ConfigError, never another exception, with or
    # without a subcommand's needs and rule
    i, path = leaf
    cfg = json.loads(json.dumps(_FUZZ_BASES[i]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            parse_config(cfg, command)
        except ConfigError:
            pass


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wide_family_support_parses_without_overflow_warning():
    # the norm quadrature of a member evaluates its atom bump across [0, 1e308],
    # where (x - c)/s passes the float range: no RuntimeWarning, as at w_bar 2.5
    cfg = json.loads(json.dumps(_FUZZ_BASES[3]))
    cfg["strong"]["family"]["w_bar"] = 1e308
    assert parse_config(cfg, "sweep").family.w_bar == 1e308


def test_distribution_object_refuses_unknown_keys(tmp_path, capsys):
    # two unknown keys, and an unknown key next to a missing one: each refused
    cfg = base_config(mechanism={"kind": "sa"})
    cfg["weak"] = {**cfg["weak"], "bogus": 1, "extra": 2}
    strong = {**cfg["strong"]["dist"], "zz": [1]}
    del strong["support"]
    cfg["strong"]["dist"] = strong
    paths = ["weak.bogus", "weak.extra", "strong.dist.zz", "strong.dist.support"]
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.errors == [(p, "unknown key") for p in paths[:3]] + [
        (paths[3], "missing required key")]
    path = write_config(tmp_path, cfg)
    assert run(["simulate", "--config", path, "--out-dir", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert [v["path"] for v in err["error"]["violations"]] == paths


def _object_paths(obj, path=()):
    """The path of every object in a config, the config itself and its
    distribution objects included."""
    yield path
    for key, val in obj.items():
        if isinstance(val, dict):
            yield from _object_paths(val, path + (key,))


def _required(path: str) -> bool:
    """Whether a config key must be given: each key of a distribution object
    must, and KEYS says for the others."""
    head = path.rpartition(".")[0]
    return head in KEYS and KEYS[head].kind is DistributionSpec or KEYS[path].required


def _in_distribution(path: tuple) -> bool:
    return bool(path) and KEYS[".".join(path)].kind is DistributionSpec


# distribution objects last, so that each section keeps its case id
_FUZZ_OBJECTS = sorted(((i, path) for i, cfg in enumerate(_FUZZ_BASES)
                        for path in _object_paths(cfg)), key=lambda c: _in_distribution(c[1]))


@pytest.mark.parametrize("i, path", _FUZZ_OBJECTS)
def test_config_fuzz_object_paths(i, path):
    # each key of each object deleted, and an unknown key added next to its
    # keys: refused with a ConfigError at the unknown key's path, or at a
    # deleted required key's path, never another exception
    base = _FUZZ_BASES[i]
    node = base
    for key in path:
        node = node[key]
    for key in [*node, None]:
        cfg = json.loads(json.dumps(base))
        obj = cfg
        for k in path:
            obj = obj[k]
        if key is None:
            obj["bogus"] = 1
            with pytest.raises(ConfigError) as err:
                parse_config(cfg)
            assert (".".join(path + ("bogus",)), "unknown key") in err.value.errors
            continue
        del obj[key]
        full = ".".join(path + (key,))
        try:
            parse_config(cfg)
        except ConfigError as exc:
            assert full in {p for p, _ in exc.errors} or not _required(full)
        else:
            assert not _required(full)


def test_family_kind_null_refused_at_its_path():
    cfg = base_config(strong={"family": {**_SLOW3, "kind": None}}, sweep={"prop": "P6"})
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert [path for path, _ in err.value.errors] == ["strong.family.kind"]


def test_unknown_key_does_not_block_the_model_rules():
    # a refused value or a missing key in a section holds back the rules that
    # read it; an unknown key beside valid values does not
    cfg = base_config(strong={"atom": {"k": 0.9, "p": 0.9, "bogus": 1}},
                      mechanism={"kind": "ta_discrete"})
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert sorted(path for path, _ in err.value.errors) == ["strong.atom.bogus", "strong.atom.k"]


def test_missing_section_reported_with_every_other_violation(tmp_path, capsys):
    # what a subcommand needs is checked in the same pass as the rest
    cfg = base_config(solver={"bogus": 1})
    del cfg["weak"]
    out = tmp_path / "o"
    assert run(["solve", "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert sorted(v["path"] for v in err["error"]["violations"]) == ["solver.bogus", "weak"]


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


def test_solver_notes_on_stderr_and_in_the_solve_report(tmp_path, capsys):
    # E[w] = 0.75 < v_bar = 1: the solve finishes and reports the broken
    # assumption, on stderr and in its report; no RuntimeWarning is raised
    cfg = base_config(strong={"dist": {"kind": "uniform", "params": [], "support": [0, 1.5]}})
    out = tmp_path / "o"
    assert run(["solve", "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]) == 0
    assert "warning: strength assumption violated" in capsys.readouterr().err
    report = json.loads(next(out.glob("solve_report.*.json")).read_text())
    assert any(note.startswith("strength assumption violated") for note in report["warnings"])


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



@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_refused(tmp_path, capsys, threads):
    path = write_config(tmp_path, base_config(mechanism={"kind": "sa"}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--config", path, "--out-dir", str(out), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, stem, overrides", [
    ("simulate", "simulate", {"mechanism": {"kind": "sa"}}),
    ("oa", "oa", {}),
])
def test_run_meta_reports_draws_per_second(tmp_path, command, stem, overrides):
    path = write_config(tmp_path, base_config(**overrides))
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out-dir", str(out)]) == 0
    meta = json.loads(next(out.glob("run_meta.*.json")).read_text())
    assert math.isfinite(meta["draws_per_s"]) and meta["draws_per_s"] > 0
    assert "draws_per_s" not in json.loads(next(out.glob(f"{stem}.*.json")).read_text())


@pytest.mark.parametrize("command, overrides, solves", [
    ("solve", {}, True),
    ("verify", {}, True),
    ("simulate", {"mechanism": {"kind": "ta"}}, True),
    ("simulate", {"mechanism": {"kind": "ta_intervention", "intervention_p": 0.6}}, True),
    ("simulate", {"mechanism": {"kind": "sa"}}, False),
])
def test_run_meta_reports_solve_seconds(tmp_path, command, overrides, solves):
    # the wall time inside solve_ode goes to run_meta, never to a result body
    path = write_config(tmp_path, base_config(**overrides))
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out-dir", str(out)]) == 0
    meta = json.loads(next(out.glob("run_meta.*.json")).read_text())
    if solves:
        assert math.isfinite(meta["solve_s"]) and 0.0 < meta["solve_s"] <= meta["wall_time_s"]
    else:
        assert "solve_s" not in meta
    bodies = [p for p in out.glob("*.json") if not p.name.startswith("run_meta")]
    assert bodies and all("solve_s" not in json.loads(p.read_text()) for p in bodies)


def test_report_renders_run_meta(tmp_path, capsys):
    path = write_config(tmp_path, base_config(mechanism={"kind": "ta"}, mc={"n": 1000, "seed": 3}))
    out = tmp_path / "out"
    assert run(["simulate", "--config", path, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    meta_path = next(out.glob("run_meta.*.json"))
    meta = json.loads(meta_path.read_text())
    assert run(["report", str(meta_path)]) == 0
    text = capsys.readouterr().out
    assert "command: simulate" in text
    assert f"wall time: {meta['wall_time_s']:.3g} s" in text
    assert f"solve time: {meta['solve_s']:.3g} s" in text
    assert f"draws per second: {meta['draws_per_s']:.4g}" in text

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


def _family(kind, size=6):
    return {"family": {"kind": kind, "k": 2.0, "w_bar": 2.5, "size": size}}


# one sweep per prop: (config overrides, sha256 of the sweep JSON, of the CSV)
SWEEP_PINS = {
    "P4": ({"strong": _family("slow_drain"), "sweep": {"prop": "P4"}},
           "62e029758e83280dd1fc564f7a5c3aff6c1845cbcfdb183e8a38d1c8c3d2304e",
           "d1ec99e9162f0be5fb3ef946ecc7a2c6984732b31f7da2c6133560573e65bb76"),
    "P5": ({"weak": _WEAK_JUMP, "strong": _family("slow_drain"), "sweep": {"prop": "P5"}},
           "3535af48f44da2203ac081d2159d5213ee7ff1ee16cddc89f46384af178932fc",
           "94e5a12c454c13e1355e42474fa757a0aa35bdd9ae462e57672a80cafa22d52e"),
    "P6": ({"strong": _family("slow_drain"), "sweep": {"prop": "P6"}},
           "3f6e4cf23dce4fdbe251a1d24fc466d1984d1ca080db9aa0cade64850b16dfa4",
           "d1ec99e9162f0be5fb3ef946ecc7a2c6984732b31f7da2c6133560573e65bb76"),
    "S8": ({"strong": _family("smoothed_discrete"),
            "sweep": {"prop": "S8", "intervention_p": 0.75}},
           "04803eb433bcc38dd2127cc69da222d425d85539576a81e3b5e457422d5c89c5",
           "9c57dfba44ef0e28e2a6dd1aea0be65bd917833c084fe1210e9efba97c53ffe4"),
    "P7": ({"strong": _family("slow_drain"),
            "sweep": {"prop": "P7", "rule": {"kind": "block_steps", "eps": 0.5}}},
           "b6ddf6fc959fe01323a847c8bcbba0139da1d65b5a66fd513ef15efd06aae5af",
           "7f56536a2ed9a5392f3307e9be9e027e1477b002360e29154d0516e1c400f0f6"),
    "P8": ({"strong": _family("slow_drain"),
            "sweep": {"prop": "P8", "rule": {"kind": "constant", "value": 1.6}}},
           "e6a727e942a7a53d0108c01e5ea85e334c2945e89ea97701e24e773dd458c117",
           "0ac0f86ae0536a4838eeb3f0b19820c4248cfafdeec194b57ff1079f73b3cbb7"),
    "P9": ({"strong": _family("slow_drain"),
            "sweep": {"prop": "P9", "rule": {"kind": "constant", "value": 2.2}}},
           "0e36fca0e5ff165a8e67cc46ed055b02fb3f7b4bc46fd93e4981d3e102480824",
           "c69213a8fcb144690289c1e1d3abc5edd3391f53e52a26989a806bf2ab356691"),
    "P10": ({"strong": _family("split_atom"),
             "sweep": {"prop": "P10", "rule": {"kind": "quantile_below"}}},
            "f25446924ba2efdb027dc3b0b339ac225f124169a33e22f65640b935d2dae36b",
            "74850fc57db4872bcadf0ba4a8f87d3e590926c4eebcba14f79ddc669bc0b368"),
}


@pytest.mark.parametrize("prop", SWEEP_PINS)
def test_sweep_bytes_pinned(tmp_path, prop):
    # every prop's sweep files, byte for byte: a change to how the rows are
    # computed or written shows here first
    overrides, body_pin, table_pin = SWEEP_PINS[prop]
    cfg = base_config(**overrides, mc={"n": 3000, "seed": 7})
    out = tmp_path / "o"
    assert run(["sweep", "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]) == 0
    (body,) = out.glob("sweep.*.json")
    (table,) = out.glob("sweep_table.*.csv")
    assert hashlib.sha256(body.read_bytes()).hexdigest() == body_pin
    assert hashlib.sha256(table.read_bytes()).hexdigest() == table_pin


# check-family JSON per family at size 12: the low-drain ratios and the
# conditional means E[w | w <= c2] / c2 it writes; sha256 of the body
CHECK_FAMILY_PINS = {
    "slow_drain": ({},
                   "fe979186780eb3990f9e50af3cff381c76f772dd46290f7668a3c15d2008f3c8"),
    "fast_drain": ({},
                   "5fa76bedbd7d0dd19aef11ca0a7876099f7f2ea0272e0e27aab2f5cbfe6f52b8"),
    "smoothed_discrete": ({"atom_share": 0.6},
                          "9f9d8b16a2b209941e30c63033f782c553f2e431249daaf3d54119259aa84c97"),
    "split_atom": ({"split_p": 0.3},
                   "0f9f1a16ffae9ae7f2fa1bf52f154ae0463668531d3499b28b82df2fe1738273"),
}


@pytest.mark.parametrize("kind", CHECK_FAMILY_PINS)
def test_check_family_bytes_pinned(tmp_path, kind):
    extra, pin = CHECK_FAMILY_PINS[kind]
    family = _family(kind, size=12)
    family["family"].update(extra)
    out = tmp_path / "o"
    assert run(["check-family", "--config", write_config(tmp_path, base_config(strong=family)),
                "--out-dir", str(out)]) == 0
    (body,) = out.glob("family_checks.*.json")
    assert hashlib.sha256(body.read_bytes()).hexdigest() == pin


def test_sweep_body_is_strict_json(tmp_path, capsys):
    # a P5 row has no surplus or regret: JSON has no NaN, so they are null,
    # and talab report prints them as n/a
    overrides = SWEEP_PINS["P5"][0]
    cfg = base_config(**overrides, mc={"n": 3000, "seed": 7})
    out = tmp_path / "o"
    assert run(["sweep", "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]) == 0
    (body,) = out.glob("sweep.*.json")

    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    rows = json.loads(body.read_text(), parse_constant=no_constant)["rows"]
    assert all(row[key] is None for row in rows for key in ("S_mean", "S_se", "max_regret"))
    assert all(math.isfinite(row["R_mean"]) for row in rows)
    capsys.readouterr()
    assert run(["report", str(body)]) == 0
    text = capsys.readouterr().out
    assert f"l=1: R={rows[0]['R_mean']:.6g} S=n/a gap=" in text


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
    # refused before any computation: nothing is written
    cfg = base_config(mechanism={"kind": "sa"}, mc={"n": 20000, "seed": 1})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert run(["simulate", "--config", path, "--out-dir", str(out), "--per-draw"]) == 2
    assert not out.exists()


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


def _unreadable(tmp_path, case: str) -> str:
    """A path that cannot be read as a JSON file: missing, a directory, or bytes
    that are not UTF-8."""
    path = tmp_path / f"{case}.json"
    if case == "directory":
        path.mkdir()
    elif case == "latin1":
        path.write_bytes(b'{"version": "1", "n_weak": 2, "note": "caf\xe9"}')
    return str(path)


@pytest.mark.parametrize("case", ["missing", "directory", "latin1"])
def test_unreadable_config_refused(tmp_path, capsys, case):
    path = _unreadable(tmp_path, case)
    out = tmp_path / "out"
    assert run(["solve", "--config", path, "--out-dir", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "config"
    (violation,) = err["error"]["violations"]
    assert violation["path"] == "" and path in violation["message"]


_FAMILY = {"family": {"kind": "slow_drain", "k": 2.0, "w_bar": 2.5, "size": 2}}


def _U(lo, hi):
    return {"kind": "uniform", "params": [], "support": [lo, hi]}


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
    # a sweep key the prop does not read
    ("sweep", {"strong": _FAMILY, "sweep": {"prop": "P6", "intervention_p": 0.75}},
     "sweep.intervention_p"),
    ("sweep", {"strong": _FAMILY,
               "sweep": {"prop": "P6", "rule": {"kind": "constant", "value": 1.6}}},
     "sweep.rule"),
    # a family key its kind does not read
    ("check-family", {"strong": {"family": {**_FAMILY["family"], "split_p": 0.3}}},
     "strong.family.split_p"),
    ("check-family", {"strong": {"family": {**_FAMILY["family"], "atom_share": 0.4}}},
     "strong.family.atom_share"),
    ("simulate", {"n_weak": 1, "mechanism": {"kind": "sa"}}, "n_weak"),
    ("oa", {"n_weak": 0, "strong": None}, "strong"),
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
    # a mixture encoding with a malformed count
    ("simulate", {"weak": {**_MIXTURE, "params": [math.inf, *_MIXTURE["params"][1:]]},
                  "mechanism": {"kind": "sa"}}, "weak"),
    ("simulate", {"weak": {**_MIXTURE, "params": [*_MIXTURE["params"][:8], -30,
                                                  *_MIXTURE["params"][9:]]},
                  "mechanism": {"kind": "sa"}}, "weak"),
    # Philox takes a 64-bit seed
    ("simulate", {"mechanism": {"kind": "sa"}, "mc": {"n": 100, "seed": 2**64}}, "mc.seed"),
    # the bid ODE needs value supports starting at 0
    ("solve", {"weak": _U(0.2, 1)}, "weak"),
    ("solve", {"strong": {"dist": _U(0.5, 2)}}, "strong.dist"),
    ("simulate", {"weak": _U(0.2, 1), "mechanism": {"kind": "ta"}}, "weak"),
    ("sweep", {"weak": _U(0.2, 1), "strong": _FAMILY, "sweep": {"prop": "P6"}}, "weak"),
    # the beta_poly kind and its mixture code 1 are retired
    ("simulate", {"weak": {"kind": "beta_poly", "params": [2, 3], "support": [0, 1]},
                  "mechanism": {"kind": "sa"}}, "weak"),
    ("simulate", {"weak": {"kind": "mixture", "params": [1, 1, 1, 2, 2, 3, 0, 1],
                           "support": [0, 1]}, "mechanism": {"kind": "sa"}}, "weak"),
    # a component lies in its declared interval, and a uniform takes no params
    ("simulate", {"weak": {**_U(0, 1), "params": [5, 7]}, "mechanism": {"kind": "sa"}}, "weak"),
    ("simulate", {"weak": {"kind": "mixture", "support": [0, 1], "params": [
        2, 0.5, 0, 0, 0, 1, 0.5, 3, 6, 0, 0, 0.25, 4, 0.5, 0, 0.9, 0.95]},
                  "mechanism": {"kind": "sa"}}, "weak"),
], ids=["ta_intervention-p0", "ta_intervention-p1", "S8-no-p", "S8-p1", "S8-pk",
        "P7-constant", "P8-no-rule", "P6-intervention_p", "P6-rule",
        "slow_drain-split_p", "slow_drain-atom_share", "simulate-n_weak1", "oa-nothing-to-sell",
        "atom-k", "family-k", "solve-n_weak1", "verify-n_weak1", "P5-n_weak-1",
        "reserve-nan", "mc-n-inf", "rk_tolerance-nan", "mixture-count-inf",
        "mixture-size-negative", "mc-seed-2**64", "solve-weak-above-0",
        "solve-strong-above-0", "ta-weak-above-0", "P6-weak-above-0", "weak-beta_poly",
        "weak-mixture-code-1", "weak-uniform-params", "weak-pw_linear-outside"])
def test_model_rules_refused_as_config_errors(tmp_path, capsys, command, overrides, path):
    # everything decidable from the config is refused before any computation
    cfg = {k: v for k, v in base_config(**overrides).items() if v is not None}
    out = tmp_path / "out"
    assert run([command, "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert [v["path"] for v in err["error"]["violations"]] == [path]


@pytest.mark.parametrize("command, overrides", [
    ("simulate", {"mechanism": {"kind": "ta"}}),
    ("oa", {}),
    ("sweep", {"strong": _FAMILY, "sweep": {"prop": "P6"}}),
])
def test_unallocatable_mc_n_refused(tmp_path, capsys, command, overrides):
    # 10^15 replicates need petabytes of per-replicate outputs: refused at
    # mc.n when they cannot be allocated, not a numpy MemoryError traceback
    cfg = base_config(mc={"n": 10**15, "seed": 7}, **overrides)
    path = write_config(tmp_path, cfg)
    assert run([command, "--config", path, "--out-dir", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "config"
    (violation,) = err["error"]["violations"]
    assert violation["path"] == "mc.n"
    assert "more than can be allocated" in violation["message"]


def test_mc_n_past_numpy_index_range_refused(tmp_path, capsys):
    # numpy refuses 10^20 elements outright, with a ValueError
    cfg = base_config(mc={"n": 10**20, "seed": 7}, mechanism={"kind": "sa"})
    out = tmp_path / "o"
    assert run(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]) == 2
    (violation,) = json.loads(capsys.readouterr().err.strip())["error"]["violations"]
    assert violation["path"] == "mc.n" and "more than can be allocated" in violation["message"]
    assert not out.exists()


@pytest.mark.parametrize("command, n_weak, overrides", [
    ("simulate", 10**20, {"mechanism": {"kind": "sa"}}),   # past numpy's index range
    ("simulate", 10**9, {"mechanism": {"kind": "sa"}}),    # 74.5 GiB of uniforms per block
    ("oa", 10**9, {}),
    ("sweep", 10**9, {"strong": {"family": _SLOW3}, "sweep": {"prop": "P6"}}),
    # the closed-form rows of the reserve props go through the same bound
    ("sweep", 1001, {"strong": {"family": {**_SLOW3, "size": 4}},
                     "sweep": {"prop": "P7", "rule": {"kind": "block_steps", "eps": 0.5}}}),
    ("sweep", 1001, {"strong": {"family": {**_SLOW3, "kind": "split_atom"}},
                     "sweep": {"prop": "P10", "rule": {"kind": "quantile_below"}}}),
])
def test_n_weak_past_its_bound_refused(tmp_path, capsys, command, n_weak, overrides):
    # each Monte Carlo block asks for 2^15 x (n_weak + 3) uniforms at once
    cfg = base_config(n_weak=n_weak, mc={"n": 10, "seed": 7}, **overrides)
    out = tmp_path / "o"
    assert run([command, "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]) == 2
    (violation,) = json.loads(capsys.readouterr().err.strip())["error"]["violations"]
    assert violation["path"] == "n_weak" and "at most 1000 weak bidders" in violation["message"]
    assert not out.exists()
    parse_config(base_config(n_weak=1000, mechanism={"kind": "sa"}))   # the bound itself


def test_solve_takes_more_weak_bidders_than_monte_carlo(tmp_path, capsys):
    # a solve sizes no Monte Carlo block, so the block bound does not apply
    cfg = base_config(n_weak=1001)
    assert run(["solve", "--config", write_config(tmp_path, cfg),
                "--out-dir", str(tmp_path / "o")]) == 0


def test_seed_override_parsed_with_the_config(tmp_path, capsys):
    # --seed goes into the config before its one check: out of range, it is
    # refused at mc.seed before anything is written
    path = write_config(tmp_path, base_config(mechanism={"kind": "sa"}))
    out = tmp_path / "o"
    assert run(["simulate", "--config", path, "--out-dir", str(out),
                "--seed", str(2**64)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert [v["path"] for v in err["error"]["violations"]] == ["mc.seed"]


def test_largest_seed_sweeps(tmp_path):
    # sweep row l draws with key seed * 2^64 + l, near 2^128 for the largest seed
    cfg = base_config(strong=_FAMILY, sweep={"prop": "P6"}, mc={"n": 100, "seed": 0})
    out = tmp_path / "o"
    assert run(["sweep", "--config", write_config(tmp_path, cfg), "--out-dir", str(out),
                "--seed", str(2**64 - 1)]) == 0
    body = json.loads(next(out.glob("sweep.*.json")).read_text())
    assert body["seed"] == 2**64 - 1 and len(body["rows"]) == 2


def test_singular_start_refused(tmp_path, capsys):
    # the weak density is 0 below v = 0.2, so its cdf is 0 at the series start
    # and the bid ODE is undefined there: a numeric refusal, not a traceback
    weak = {"kind": "pw_linear", "params": [0, 0, 0.2, 0, 0.5, 1, 1, 1], "support": [0, 1]}
    cfg = base_config(weak=weak, mechanism={"kind": "ta"}, mc={"n": 1000, "seed": 1})
    out = tmp_path / "o"
    assert run(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "numeric"
    assert "no valid series start" in err["error"]["message"]
    assert not out.exists()


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
    # a weak density that jumps at v = 0.4: the defect gate cannot be met
    # above the step floor, so the solve stops with exit 3 and still writes its
    # solve report, with a null defect
    cfg = base_config(n_weak=3, weak=_WEAK_JUMP)
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
    assert f"max defect bound {rep['max_ode_residual']:.3g}" in text
    assert "series start v0" in text


_NOT_RESULTS = {
    "not-json": "revenue: 1\n",
    "estimate-without-se": '{"revenue": {"mean": 1}}',
    "revenue-not-a-number": '{"revenue": "high"}',
    "list": '[{"revenue": 1}]',
    "no-result-field": '{"note": 1}',
}


@pytest.mark.parametrize("case", ["missing", "directory", "latin1", *_NOT_RESULTS])
def test_report_refuses_what_is_not_a_result(tmp_path, capsys, case):
    if case in _NOT_RESULTS:
        path = tmp_path / f"{case}.json"
        path.write_text(_NOT_RESULTS[case])
        path = str(path)
    else:
        path = _unreadable(tmp_path, case)
    assert run(["report", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["error"]["type"] == "config"
    (violation,) = err["error"]["violations"]
    assert violation["path"] == "" and path in violation["message"]
