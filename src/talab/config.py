"""Experiment configuration: strict JSON schema and stable hashing.

Configs are plain JSON objects. Validation is all-at-once: every violation is
collected with its field path before raising, and unknown keys are rejected
everywhere. This module checks the JSON's shape (keys, types, integers) and
the bounds of the run settings (``mc``, ``solver``, ``verify``). Each rule of
the model is stated once, in the domain module it concerns (the spec
constructors, ``check_auction``, ``check_experiment``); config calls it and
files its refusal under the config path of the field it names, before any
computation starts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from . import dist
from .dist import DistributionError, DistributionSpec
from .equilibrium import InputError, SolveOptions
from .mechanisms import DiscreteAtomSpec, check_auction
from .sequences import FamilySpec, ReserveRule, check_experiment


class ConfigError(ValueError):
    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        lines = "; ".join(f"{path}: {msg}" for path, msg in errors)
        super().__init__(f"invalid config: {lines}")


@dataclass(frozen=True)
class ExperimentConfig:
    n_weak: int
    weak: DistributionSpec | None
    strong_dist: DistributionSpec | None
    strong_atom: DiscreteAtomSpec | None
    family: FamilySpec | None
    mechanism: str | None
    reserve: float | None
    intervention_p: float | None
    solver: SolveOptions
    mc_n: int
    mc_seed: int
    sweep_prop: str | None
    sweep_rule: ReserveRule | None
    sweep_intervention_p: float | None
    verify_tolerance: float
    raw: dict = field(repr=False, compare=False)

    @property
    def config_hash(self) -> str:
        return hash_config(self.raw)


def hash_config(obj: dict) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def refusal_path(field: str | None, paths: dict[str, str]) -> str:
    """Config path of the field a domain refusal names: its first part mapped
    through ``paths`` (a name not in it is a top-level key), the rest kept."""
    head, _, rest = (field or "").partition(".")
    base = paths.get(head, head)
    return f"{base}.{rest}" if rest else base


def _under(path: str, keys) -> dict[str, str]:
    return {key: f"{path}.{key}" for key in keys}


class _Checker:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def fail(self, path: str, msg: str):
        self.errors.append((path, msg))

    def expect_keys(self, obj: dict, path: str, allowed: set[str], required: set[str]):
        for key in sorted(set(obj) - allowed):
            self.fail(f"{path}.{key}" if path else key, "unknown key")
        for key in sorted(required - set(obj)):
            self.fail(f"{path}.{key}" if path else key, "missing required key")

    def section(self, obj: dict, path: str, allowed: set[str],
                required: set[str]) -> dict | None:
        """The object at the last key of path in obj with its keys checked, or
        None if it is absent or not an object."""
        key = path.rpartition(".")[2]
        if key not in obj:
            return None
        val = obj[key]
        if not isinstance(val, dict):
            self.fail(path, "expected an object")
            return None
        self.expect_keys(val, path, allowed, required)
        return val

    def number(self, obj, path, lo=None, integer=False):
        val = obj
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            self.fail(path, f"expected a number, got {type(val).__name__}")
            return None
        try:
            finite = math.isfinite(val)    # json reads NaN, Infinity and any int
        except OverflowError:
            finite = False
        if not finite:
            self.fail(path, "expected a finite number" + (
                f", got {val}" if isinstance(val, float) else " in the range of a double"))
            return None
        if integer and int(val) != val:
            self.fail(path, f"expected an integer, got {val}")
            return None
        if lo is not None and val < lo:
            self.fail(path, f"must be >= {lo}, got {val}")
            return None
        return int(val) if integer else float(val)

    def domain(self, paths: dict[str, str], fn, *args, **kwargs):
        """fn(*args, **kwargs), or None once its refusal is recorded at the
        config path of the field it names."""
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            self.fail(refusal_path(exc.field, paths), str(exc))
            return None


def _parse_distribution(ck: _Checker, obj, path: str) -> DistributionSpec | None:
    if not isinstance(obj, dict):
        ck.fail(path, "expected a distribution object")
        return None
    try:
        return dist.from_json_dict(obj)
    except (DistributionError, ValueError, TypeError, OverflowError) as exc:
        ck.fail(path, str(exc))
        return None


_TOP_KEYS = {"version", "n_weak", "weak", "strong", "mechanism", "solver", "mc",
             "sweep", "verify"}
_STRONG_KEYS = {"dist", "atom", "family"}
_MECH_KEYS = {"kind", "reserve", "intervention_p"}
_SOLVER_KEYS = {"v0_fraction", "rk_tolerance", "residual_tolerance"}
_MC_KEYS = {"n", "seed"}
_SWEEP_KEYS = {"prop", "rule", "intervention_p"}
_RULE_KEYS = {"kind", "value", "eps"}
_FAMILY_KEYS = {"kind", "k", "w_bar", "size", "atom_share", "split_p"}
_ATOM_KEYS = {"k", "p"}
_VERIFY_KEYS = {"tolerance"}


def parse_config(obj: dict) -> ExperimentConfig:
    """Validate a config object; raises ConfigError listing every violation."""
    ck = _Checker()
    if not isinstance(obj, dict):
        raise ConfigError([("", "config must be a JSON object")])
    ck.expect_keys(obj, "", _TOP_KEYS, {"version", "n_weak"})

    if obj.get("version", "1") != "1":
        ck.fail("version", f"unsupported version {obj['version']!r}")

    n_weak = ck.number(obj.get("n_weak", 2), "n_weak", integer=True)

    weak = None
    if "weak" in obj:
        weak = _parse_distribution(ck, obj["weak"], "weak")

    strong = strong_dist = strong_atom = family = None
    strong_path, strong_ok = "strong", True
    s = ck.section(obj, "strong", _STRONG_KEYS, set())
    if s is not None:
        n_errors = len(ck.errors)
        given = sorted(_STRONG_KEYS & set(s))
        if len(given) != 1:
            ck.fail("strong", f"exactly one of {sorted(_STRONG_KEYS)} required")
        if "dist" in s:
            strong_dist = _parse_distribution(ck, s["dist"], "strong.dist")
        a = ck.section(s, "strong.atom", _ATOM_KEYS, _ATOM_KEYS)
        if a is not None:
            k = ck.number(a.get("k", 1.0), "strong.atom.k")
            p = ck.number(a.get("p", 0.5), "strong.atom.p")
            if k is not None and p is not None:
                strong_atom = ck.domain(_under("strong.atom", _ATOM_KEYS),
                                        DiscreteAtomSpec, k=k, p=p)
        f = ck.section(s, "strong.family", _FAMILY_KEYS, {"kind", "k", "w_bar"})
        if f is not None:
            fields = {
                "kind": f.get("kind"),
                "k": ck.number(f.get("k", 2.0), "strong.family.k"),
                "w_bar": ck.number(f.get("w_bar", 2.5), "strong.family.w_bar"),
                "size": ck.number(f.get("size", 8), "strong.family.size", integer=True),
                "atom_share": ck.number(f.get("atom_share", 1.0), "strong.family.atom_share"),
                "split_p": ck.number(f.get("split_p", 0.5), "strong.family.split_p"),
            }
            if None not in fields.values():
                family = ck.domain(_under("strong.family", _FAMILY_KEYS), FamilySpec, **fields)
        if len(given) == 1:
            strong_path = f"strong.{given[0]}"
            strong = {"dist": strong_dist, "atom": strong_atom, "family": family}[given[0]]
        strong_ok = len(ck.errors) == n_errors

    mechanism = reserve = intervention_p = None
    m = ck.section(obj, "mechanism", _MECH_KEYS, {"kind"})
    if m is not None:
        n_errors = len(ck.errors)
        mechanism = m.get("kind")
        if "reserve" in m:
            reserve = ck.number(m["reserve"], "mechanism.reserve")
        if "intervention_p" in m:
            intervention_p = ck.number(m["intervention_p"], "mechanism.intervention_p")
        if len(ck.errors) == n_errors and strong_ok and None not in (weak, n_weak):
            ck.domain({**_under("mechanism", _MECH_KEYS), "strong": strong_path},
                      check_auction, mechanism, n_weak, weak, strong, reserve,
                      intervention_p)

    solver_kwargs = {}
    sol = ck.section(obj, "solver", _SOLVER_KEYS, set())
    for key, lo in (("v0_fraction", 1e-12), ("rk_tolerance", 1e-14),
                    ("residual_tolerance", 1e-14)):
        if sol is not None and key in sol:
            val = ck.number(sol[key], f"solver.{key}", lo=lo)
            if val is not None:
                solver_kwargs[key] = val

    mc_n, mc_seed = 100_000, 0
    mc = ck.section(obj, "mc", _MC_KEYS, set())
    if mc is not None and "n" in mc:
        mc_n = ck.number(mc["n"], "mc.n", lo=1, integer=True) or mc_n
    if mc is not None and "seed" in mc:
        val = ck.number(mc["seed"], "mc.seed", lo=0, integer=True)
        if val is not None and val >= 2**64:   # the Philox key; sweep row l keys seed + l
            ck.fail("mc.seed", f"must be < 2^64, got {val}")
        mc_seed = mc_seed if val is None else val

    sweep_prop = sweep_rule = sweep_p = None
    sw = ck.section(obj, "sweep", _SWEEP_KEYS, {"prop"})
    if sw is not None:
        n_errors = len(ck.errors)
        sweep_prop = sw.get("prop")
        if "intervention_p" in sw:
            sweep_p = ck.number(sw["intervention_p"], "sweep.intervention_p")
        r = ck.section(sw, "sweep.rule", _RULE_KEYS, {"kind"})
        if r is not None:
            value = ck.number(r["value"], "sweep.rule.value") if "value" in r else None
            eps = ck.number(r["eps"], "sweep.rule.eps") if "eps" in r else None
            sweep_rule = ck.domain(_under("sweep.rule", _RULE_KEYS), ReserveRule,
                                   kind=r.get("kind"), value=value, eps=eps)
        if len(ck.errors) == n_errors and None not in (family, weak, n_weak):
            ck.domain({**_under("sweep", _SWEEP_KEYS), "fam": "strong.family"},
                      check_experiment, sweep_prop, family, weak, n_weak, sweep_rule, sweep_p)

    verify_tolerance = 1e-4
    v = ck.section(obj, "verify", _VERIFY_KEYS, set())
    if v is not None and "tolerance" in v:
        val = ck.number(v["tolerance"], "verify.tolerance", lo=0.0)
        verify_tolerance = verify_tolerance if val is None else val

    if ck.errors:
        raise ConfigError(ck.errors)

    return ExperimentConfig(
        n_weak=n_weak,
        weak=weak,
        strong_dist=strong_dist,
        strong_atom=strong_atom,
        family=family,
        mechanism=mechanism,
        reserve=reserve,
        intervention_p=intervention_p,
        solver=SolveOptions(**solver_kwargs),
        mc_n=mc_n,
        mc_seed=mc_seed,
        sweep_prop=sweep_prop,
        sweep_rule=sweep_rule,
        sweep_intervention_p=sweep_p,
        verify_tolerance=verify_tolerance,
        raw=obj,
    )


def read_json(path: str):
    """The JSON value in the file at path; a ConfigError at path "" if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:     # the JSON and UTF-8 decode errors are ValueErrors
        raise ConfigError([("", f"cannot read {path} as JSON: {exc}")]) from exc


def load_config(path: str, seed: int | None = None) -> ExperimentConfig:
    """The config at path, with ``mc.seed`` replaced by seed if one is given;
    the hash covers the replaced seed."""
    obj = read_json(path)
    # a malformed config or mc is left for parse_config to report
    if seed is not None and isinstance(obj, dict) and isinstance(obj.get("mc", {}), dict):
        obj = {**obj, "mc": {**obj.get("mc", {}), "seed": seed}}
    return parse_config(obj)
