"""Command-line front end.

Subcommands: solve, verify, simulate, oa, sweep, check-family, report.
Outputs are written atomically (temp file + rename); every output file name
carries the config hash and seed, result JSON bodies repeat them as fields,
and bodies contain nothing volatile, so reruns with the same config are
byte-identical. Wall-clock metadata goes to a separate meta file.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config, refusal_path
from .dist import DistributionError
from .equilibrium import (
    BandEscape,
    BidFunction,
    EquilibriumError,
    InputError,
    StrongBidLaw,
    check_weak_bidders,
    solve_ode,
    verify_best_response,
)
from .mechanisms import AuctionSpec, MechanismError, simulate, simulate_draws
from .myerson import check_oa, oa_revenue, regularity_check, single_buyer_reserve
from .sequences import LimitTable, run_limit_experiment

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_NUMERIC_ERRORS = (EquilibriumError, InputError, DistributionError)


class VerificationFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# atomic output helpers
# ---------------------------------------------------------------------------


def _atomic_write(path: str, data: bytes):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def write_json(path: str, obj: dict):
    body = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    _atomic_write(path, body.encode("utf-8"))


def write_csv(path: str, header: list[str], rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(x) for x in row])
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def _fmt_cell(x):
    if isinstance(x, float):
        return repr(x)
    return x


def _out_path(out_dir: str, stem: str, tag: str, ext: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, f"{stem}.{tag}.{ext}")


def _estimate_dict(est) -> dict:
    return {"mean": est.mean, "se": est.std_error, "n": est.n, "seed": est.seed}


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _require(cfg_value, name: str):
    if cfg_value is None:
        raise ConfigError([(name, "required for this subcommand")])
    return cfg_value


def _config_rule(paths: dict[str, str], fn, *args):
    """fn(*args); its refusal is a config error at the path of the field it names."""
    try:
        fn(*args)
    except InputError as exc:
        raise ConfigError([(refusal_path(exc.field, paths), str(exc))]) from exc


def _replicates(fn, *args, **kwargs):
    """fn(*args, **kwargs); its refusal of the replicate count n is one of mc.n."""
    try:
        return fn(*args, **kwargs)
    except MechanismError as exc:
        if exc.field != "n":
            raise
        raise ConfigError([("mc.n", str(exc))]) from exc


def _solve_bid(cfg: ExperimentConfig, strong, collect: list[str]):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        bid, report = solve_ode(cfg.weak, strong, cfg.n_weak, cfg.solver)
    collect.extend(str(w.message) for w in caught)
    return bid, report


def _solve_report_dict(report) -> dict:
    # a failed solve reports a nan defect (and an inf smallest step if it
    # accepted none); JSON has neither, so they are written as null
    out = {k: None if isinstance(v, float) and not math.isfinite(v) else v
           for k, v in dataclasses.asdict(report).items()}
    out["warnings"] = list(report.warnings)
    return out


def _write_bid_outputs(bid: BidFunction, report, out_dir, tag, extra: dict) -> dict:
    files = {}
    files["bid_csv"] = _out_path(out_dir, "bid_function", tag, "csv")
    write_csv(files["bid_csv"], ["v", "b", "b_prime"], bid.csv_rows())
    files["bid_json"] = _out_path(out_dir, "bid_function", tag, "json")
    write_json(files["bid_json"], {**extra, "bid_function": bid.to_json_dict()})
    files["solve_report"] = _out_path(out_dir, "solve_report", tag, "json")
    write_json(files["solve_report"], {**extra, **_solve_report_dict(report)})
    return files


def _solve_and_write(cfg: ExperimentConfig, args, notes: list[str]):
    """Solve against ``strong.dist`` and write the bid outputs. A solve that
    stops on a step-size underflow still writes its solve report (counters up
    to the failure, ``max_ode_residual`` null) before the error propagates."""
    _require(cfg.weak, "weak")
    strong = _require(cfg.strong_dist, "strong.dist")
    _config_rule({}, check_weak_bidders, cfg.n_weak)
    tag = f"{cfg.config_hash}.s{cfg.mc_seed}"
    extra = {"config_hash": cfg.config_hash, "seed": cfg.mc_seed}
    try:
        bid, report = _solve_bid(cfg, strong, notes)
    except BandEscape as exc:
        if exc.report is not None:
            write_json(_out_path(args.out_dir, "solve_report", tag, "json"),
                       {**extra, **_solve_report_dict(exc.report)})
        raise
    return bid, report, _write_bid_outputs(bid, report, args.out_dir, tag, extra)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: ExperimentConfig, args) -> dict:
    notes: list[str] = []
    _, report, files = _solve_and_write(cfg, args, notes)
    return {"files": files, "solve": _solve_report_dict(report), "warnings": notes}


def cmd_verify(cfg: ExperimentConfig, args) -> dict:
    notes: list[str] = []
    bid, _, files = _solve_and_write(cfg, args, notes)
    br = verify_best_response(bid, cfg.weak, cfg.strong_dist, cfg.n_weak)
    tol = cfg.verify_tolerance * cfg.weak.support.hi
    tag = f"{cfg.config_hash}.s{cfg.mc_seed}"
    extra = {"config_hash": cfg.config_hash, "seed": cfg.mc_seed}
    result = {
        **extra,
        "max_regret": br.max_regret,
        "worst_pair": list(br.worst_pair),
        "grid_shape": list(br.grid_shape),
        "max_argmax_offset": br.max_argmax_offset,
        "tolerance": tol,
        "passed": br.max_regret <= tol,
    }
    files["best_response"] = _out_path(args.out_dir, "best_response", tag, "json")
    write_json(files["best_response"], result)
    if not result["passed"]:
        raise VerificationFailure(
            f"max_regret {br.max_regret:.3g} exceeds tolerance {tol:.3g}"
        )
    return {"files": files, "best_response": result, "warnings": notes}


def cmd_simulate(cfg: ExperimentConfig, args) -> dict:
    # parse_config has run check_auction on the mechanism once weak is given
    _require(cfg.weak, "weak")
    mechanism = _require(cfg.mechanism, "mechanism.kind")
    strong = cfg.strong_atom if mechanism == "ta_discrete" else cfg.strong_dist
    notes: list[str] = []
    bid = None
    if mechanism in ("ta", "ta_intervention"):
        law = strong
        if mechanism == "ta_intervention":
            law = StrongBidLaw(strong, zero_bid_prob=1.0 - cfg.intervention_p)
        bid, _ = _solve_bid(cfg, law, notes)
    spec = AuctionSpec(mechanism, cfg.n_weak, cfg.weak, strong, reserve=cfg.reserve,
                       intervention_p=cfg.intervention_p, bid_fn=bid)
    out = _replicates(simulate, spec, cfg.mc_n, cfg.mc_seed, threads=args.threads)
    tag = f"{cfg.config_hash}.s{cfg.mc_seed}"
    result = {
        "config_hash": cfg.config_hash,
        "seed": cfg.mc_seed,
        "mechanism": mechanism,
        "revenue": _estimate_dict(out["revenue"]),
        "surplus": _estimate_dict(out["surplus"]),
    }
    files = {"result": _out_path(args.out_dir, "simulate", tag, "json")}
    write_json(files["result"], result)
    if args.per_draw:
        if cfg.mc_n > 10_000:
            raise ConfigError([("mc.n", "per-draw output is limited to n <= 10000")])
        rev, sur = simulate_draws(spec, cfg.mc_n, cfg.mc_seed, threads=args.threads)
        files["draws"] = _out_path(args.out_dir, "draws", tag, "csv")
        write_csv(files["draws"], ["replicate", "revenue", "surplus"],
                  ((i, float(r), float(s)) for i, (r, s) in enumerate(zip(rev, sur))))
    return {"files": files, "result": result, "warnings": notes}


def cmd_oa(cfg: ExperimentConfig, args) -> dict:
    strong = cfg.strong_dist
    weak = cfg.weak
    if cfg.strong_atom is not None or cfg.family is not None:
        raise ConfigError([("strong.dist",
                            "oa needs a continuous strong distribution "
                            "(use sweep P5 for family benchmarks)")])
    _config_rule({"strong": "strong.dist"}, check_oa, weak, strong, cfg.n_weak)
    est = _replicates(oa_revenue, weak, strong, cfg.n_weak, cfg.mc_n, cfg.mc_seed,
                      threads=args.threads)
    result = {
        "config_hash": cfg.config_hash,
        "seed": cfg.mc_seed,
        "revenue": est.mean,
        "se": est.std_error,
        "n": est.n,
        "regular_F": regularity_check(weak)["regular"] if weak is not None else None,
        "regular_G": regularity_check(strong)["regular"] if strong is not None else None,
        "reserve_single_buyer": single_buyer_reserve(strong) if strong is not None else None,
    }
    tag = f"{cfg.config_hash}.s{cfg.mc_seed}"
    files = {"result": _out_path(args.out_dir, "oa", tag, "json")}
    write_json(files["result"], result)
    return {"files": files, "result": result, "warnings": []}


_TABLE_HEADER = ["l", "R_mean", "R_se", "S_mean", "S_se", "target", "gap",
                 "solver_method", "max_regret"]


def _table_dict(table: LimitTable) -> dict:
    return {
        "prop": table.prop,
        "target": table.target,
        "gap": table.gap,
        "extrapolated": table.extrapolated,
        "notes": list(table.notes),
        "rows": [r.as_dict() for r in table.rows],
    }


def cmd_sweep(cfg: ExperimentConfig, args) -> dict:
    _require(cfg.weak, "weak")
    fam = _require(cfg.family, "strong.family")
    prop = _require(cfg.sweep_prop, "sweep.prop")
    table = _replicates(
        run_limit_experiment,
        prop,
        fam,
        cfg.weak,
        cfg.n_weak,
        rule=cfg.sweep_rule,
        n=cfg.mc_n,
        seed=cfg.mc_seed,
        threads=args.threads,
        intervention_p=cfg.sweep_intervention_p,
        solver=cfg.solver,
    )
    tag = f"{cfg.config_hash}.s{cfg.mc_seed}"
    files = {
        "table": _out_path(args.out_dir, "sweep_table", tag, "csv"),
        "result": _out_path(args.out_dir, "sweep", tag, "json"),
    }
    write_csv(files["table"], _TABLE_HEADER,
              ([row.as_dict()[k] for k in _TABLE_HEADER] for row in table.rows))
    write_json(files["result"], {
        "config_hash": cfg.config_hash,
        "seed": cfg.mc_seed,
        **_table_dict(table),
    })
    return {"files": files, "result": _table_dict(table), "warnings": []}


def cmd_check_family(cfg: ExperimentConfig, args) -> dict:
    from .sequences import check_atom_convergence, check_low_drain

    fam = _require(cfg.family, "strong.family")
    atom = check_atom_convergence(fam)
    drain = check_low_drain(fam)
    result = {
        "config_hash": cfg.config_hash,
        "seed": cfg.mc_seed,
        "atom_convergence": {"tol": atom["tol"], "masses": atom["masses"],
                             "passed": atom["passed"]},
        "low_drain": {
            "pairs": [list(p) for p in drain["pairs"]],
            "ratios": {f"{c1:.6g},{c2:.6g}": v for (c1, c2), v in drain["ratios"].items()},
            "cond_means": {f"{c2:.6g}": v for c2, v in drain["cond_means"].items()},
            "eq4_passed": drain["eq4_passed"],
            "cond_passed": drain["cond_passed"],
            "trend_agreement": drain["trend_agreement"],
        },
    }
    tag = f"{cfg.config_hash}.s{cfg.mc_seed}"
    files = {
        "result": _out_path(args.out_dir, "family_checks", tag, "json"),
        "table": _out_path(args.out_dir, "family_masses", tag, "csv"),
    }
    write_json(files["result"], result)
    write_csv(files["table"], ["l", "atom_mass"],
              ((l + 1, m) for l, m in enumerate(atom["masses"])))
    return {"files": files, "result": result, "warnings": []}


def cmd_report(args) -> dict:
    with open(args.input, encoding="utf-8") as fh:
        obj = json.load(fh)
    lines = [f"report for {args.input}"]
    for key in ("config_hash", "seed", "mechanism", "prop"):
        if key in obj:
            lines.append(f"  {key}: {obj[key]}")
    if "revenue" in obj and isinstance(obj["revenue"], dict):
        r = obj["revenue"]
        lines.append(f"  revenue: {r['mean']:.6g} +- {r['se']:.2g} (n={r['n']})")
    elif "revenue" in obj:
        lines.append(f"  revenue: {obj['revenue']:.6g} +- {obj.get('se', 0):.2g}")
    if "surplus" in obj and isinstance(obj["surplus"], dict):
        s = obj["surplus"]
        lines.append(f"  surplus: {s['mean']:.6g} +- {s['se']:.2g}")
    if "accepted_steps" in obj:
        defect = obj["max_ode_residual"]
        lines.append("  solve: " + ("failed (step size underflow)" if defect is None
                                    else f"max Gauss-point defect {defect:.3g}")
                     + f", series start v0 = {obj['v0']:.6g}")
        smallest = ("none" if obj["min_step"] is None
                    else "{min_step:.3g} at v = {min_step_v:.6g}".format(**obj))
        lines.append("  steps: {accepted_steps} accepted; rejected {rejected_error} error, "
                     "{rejected_band} band, {rejected_residual} defect; smallest "
                     .format(**obj) + smallest)
    if "max_regret" in obj:
        lines.append(f"  max_regret: {obj['max_regret']:.3g} "
                     f"(passed: {obj.get('passed')})")
    if "rows" in obj:
        lines.append(f"  rows: {len(obj['rows'])}, target {obj.get('target'):.6g}, "
                     f"final gap {obj.get('gap'):.6g}")
        for row in obj["rows"]:
            lines.append(f"    l={row['l']}: R={row['R_mean']:.6g} "
                         f"S={row['S_mean']:.6g} gap={row['gap']:.6g}")
    if "atom_convergence" in obj:
        a = obj["atom_convergence"]
        lines.append(f"  atom masses -> {a['masses'][-1]:.4f} (passed: {a['passed']})")
        d = obj["low_drain"]
        lines.append(f"  drain: eq4={d['eq4_passed']} cond={d['cond_passed']} "
                     f"agree={d['trend_agreement']}")
    print("\n".join(lines))
    return {"files": {}, "result": obj, "warnings": []}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talab",
        description="numerical laboratory for two-stage tournament auctions",
    )
    parser.add_argument("--version", action="version", version=f"talab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's Monte Carlo seed")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out-dir", default=".", help="output directory")

    for name in ("solve", "verify", "oa", "sweep", "check-family"):
        add_common(sub.add_parser(name))
    sim = sub.add_parser("simulate")
    add_common(sim)
    sim.add_argument("--per-draw", action="store_true",
                     help="also write per-draw CSV (n <= 10000)")
    rep = sub.add_parser("report")
    rep.add_argument("input", help="a result JSON produced by another subcommand")
    return parser


_DISPATCH = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "oa": cmd_oa,
    "sweep": cmd_sweep,
    "check-family": cmd_check_family,
}


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        if args.command == "report":
            cmd_report(args)
            return 0
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        bundle = _DISPATCH[args.command](cfg, args)
    except ConfigError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except VerificationFailure as exc:
        _emit_error("verification", exc)
        return EXIT_VERIFY
    except _NUMERIC_ERRORS as exc:
        _emit_error("numeric", exc)
        return EXIT_NUMERIC

    meta = {
        "command": args.command,
        "config_hash": cfg.config_hash,
        "seed": cfg.mc_seed,
        "wall_time_s": time.monotonic() - t0,
        "talab_version": __version__,
        "numpy_version": np.__version__,
    }
    if bundle["files"]:
        meta_path = _out_path(args.out_dir, "run_meta",
                              f"{cfg.config_hash}.s{cfg.mc_seed}", "json")
        write_json(meta_path, meta)
    for name, path in sorted(bundle["files"].items()):
        print(f"{name}: {path}")
    for note in bundle["warnings"]:
        print(f"warning: {note}", file=sys.stderr)
    return 0


def _emit_error(kind: str, exc: Exception):
    payload = {"error": {"type": kind, "message": str(exc)}}
    if isinstance(exc, ConfigError):
        payload["error"]["violations"] = [
            {"path": path, "message": msg} for path, msg in exc.errors
        ]
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
