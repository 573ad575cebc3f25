"""Experiment configuration: strict JSON schema, semantic checks, stable hashing.

Configs are plain JSON objects. Validation is all-at-once: every violation is
collected with its field path before raising, unknown keys are rejected
everywhere, and semantic rules (atom value vs support top, reserve floor,
intervention feasibility) are checked before any computation starts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from . import dist
from .dist import DistributionError, DistributionSpec
from .equilibrium import SolveOptions
from .mechanisms import MECHANISMS, DiscreteAtomSpec
from .sequences import FAMILY_KINDS, PROPS, FamilySpec, ReserveRule


class ConfigError(ValueError):
    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        lines = "; ".join(f"{path}: {msg}" for path, msg in errors)
        super().__init__(f"invalid config: {lines}")


@dataclass(frozen=True)
class ExperimentConfig:
    version: str
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
    verify_tolerance: float
    raw: dict = field(repr=False, compare=False)

    @property
    def config_hash(self) -> str:
        return hash_config(self.raw)


def hash_config(obj: dict) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


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

    def number(self, obj, path, lo=None, hi=None, integer=False):
        val = obj
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            self.fail(path, f"expected a number, got {type(val).__name__}")
            return None
        if integer and int(val) != val:
            self.fail(path, f"expected an integer, got {val}")
            return None
        if lo is not None and val < lo:
            self.fail(path, f"must be >= {lo}, got {val}")
            return None
        if hi is not None and val > hi:
            self.fail(path, f"must be <= {hi}, got {val}")
            return None
        return int(val) if integer else float(val)


def _parse_distribution(ck: _Checker, obj, path: str) -> DistributionSpec | None:
    if not isinstance(obj, dict):
        ck.fail(path, "expected a distribution object")
        return None
    try:
        return dist.from_json_dict(obj)
    except (DistributionError, ValueError, TypeError) as exc:
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

    version = obj.get("version")
    if version is not None and version != "1":
        ck.fail("version", f"unsupported version {version!r}")

    n_weak = ck.number(obj.get("n_weak", 2), "n_weak", lo=0, integer=True)

    weak = None
    if "weak" in obj:
        weak = _parse_distribution(ck, obj["weak"], "weak")

    strong_dist = strong_atom = family = None
    if "strong" in obj:
        s = obj["strong"]
        if not isinstance(s, dict):
            ck.fail("strong", "expected an object")
        else:
            ck.expect_keys(s, "strong", _STRONG_KEYS, set())
            given = [k for k in _STRONG_KEYS if k in s]
            if len(given) != 1:
                ck.fail("strong", f"exactly one of {sorted(_STRONG_KEYS)} required")
            if "dist" in s:
                strong_dist = _parse_distribution(ck, s["dist"], "strong.dist")
            if "atom" in s and isinstance(s["atom"], dict):
                ck.expect_keys(s["atom"], "strong.atom", _ATOM_KEYS, _ATOM_KEYS)
                k = ck.number(s["atom"].get("k", 1.0), "strong.atom.k", lo=0.0)
                p = ck.number(s["atom"].get("p", 0.5), "strong.atom.p")
                if k is not None and p is not None:
                    try:
                        strong_atom = DiscreteAtomSpec(k=k, p=p)
                    except ValueError as exc:
                        ck.fail("strong.atom", str(exc))
            if "family" in s and isinstance(s["family"], dict):
                f = s["family"]
                ck.expect_keys(f, "strong.family", _FAMILY_KEYS, {"kind", "k", "w_bar"})
                kind = f.get("kind")
                if kind not in FAMILY_KINDS:
                    ck.fail("strong.family.kind", f"expected one of {FAMILY_KINDS}")
                k = ck.number(f.get("k", 2.0), "strong.family.k", lo=0.0)
                w_bar = ck.number(f.get("w_bar", 2.5), "strong.family.w_bar", lo=0.0)
                size = ck.number(f.get("size", 8), "strong.family.size", lo=2, integer=True)
                share = ck.number(f.get("atom_share", 1.0), "strong.family.atom_share",
                                  lo=0.0, hi=1.0)
                split_p = ck.number(f.get("split_p", 0.5), "strong.family.split_p",
                                    lo=0.0, hi=1.0)
                if not ck.errors:
                    try:
                        family = FamilySpec(kind=kind, k=k, w_bar=w_bar, size=size,
                                            atom_share=share, split_p=split_p)
                    except ValueError as exc:
                        ck.fail("strong.family", str(exc))

    mechanism = reserve = intervention_p = None
    if "mechanism" in obj:
        m = obj["mechanism"]
        if not isinstance(m, dict):
            ck.fail("mechanism", "expected an object")
        else:
            ck.expect_keys(m, "mechanism", _MECH_KEYS, {"kind"})
            mechanism = m.get("kind")
            if mechanism not in MECHANISMS:
                ck.fail("mechanism.kind", f"expected one of {MECHANISMS}")
            if "reserve" in m:
                reserve = ck.number(m["reserve"], "mechanism.reserve", lo=0.0)
            if "intervention_p" in m:
                intervention_p = ck.number(m["intervention_p"],
                                           "mechanism.intervention_p", lo=0.0, hi=1.0)

    solver_kwargs = {}
    if "solver" in obj:
        s = obj["solver"]
        if not isinstance(s, dict):
            ck.fail("solver", "expected an object")
        else:
            ck.expect_keys(s, "solver", _SOLVER_KEYS, set())
            for key, lo in (("v0_fraction", 1e-12), ("rk_tolerance", 1e-14),
                            ("residual_tolerance", 1e-14)):
                if key in s:
                    val = ck.number(s[key], f"solver.{key}", lo=lo)
                    if val is not None:
                        solver_kwargs[key] = val

    mc_n, mc_seed = 100_000, 0
    if "mc" in obj:
        m = obj["mc"]
        if not isinstance(m, dict):
            ck.fail("mc", "expected an object")
        else:
            ck.expect_keys(m, "mc", _MC_KEYS, set())
            if "n" in m:
                mc_n = ck.number(m["n"], "mc.n", lo=1, integer=True) or mc_n
            if "seed" in m:
                val = ck.number(m["seed"], "mc.seed", lo=0, integer=True)
                mc_seed = mc_seed if val is None else val

    sweep_prop = None
    sweep_rule = None
    sweep_intervention = None
    if "sweep" in obj:
        s = obj["sweep"]
        if not isinstance(s, dict):
            ck.fail("sweep", "expected an object")
        else:
            ck.expect_keys(s, "sweep", _SWEEP_KEYS, {"prop"})
            sweep_prop = s.get("prop")
            if sweep_prop not in PROPS:
                ck.fail("sweep.prop", f"expected one of {PROPS}")
            if "intervention_p" in s:
                sweep_intervention = ck.number(s["intervention_p"],
                                               "sweep.intervention_p", lo=0.0, hi=1.0)
            if "rule" in s:
                r = s["rule"]
                if not isinstance(r, dict):
                    ck.fail("sweep.rule", "expected an object")
                else:
                    ck.expect_keys(r, "sweep.rule", _RULE_KEYS, {"kind"})
                    value = eps = None
                    if "value" in r:
                        value = ck.number(r["value"], "sweep.rule.value")
                    if "eps" in r:
                        eps = ck.number(r["eps"], "sweep.rule.eps", lo=0.0)
                    try:
                        sweep_rule = ReserveRule(kind=r.get("kind"), value=value, eps=eps)
                    except ValueError as exc:
                        ck.fail("sweep.rule", str(exc))

    verify_tolerance = 1e-4
    if "verify" in obj:
        v = obj["verify"]
        if not isinstance(v, dict):
            ck.fail("verify", "expected an object")
        else:
            ck.expect_keys(v, "verify", _VERIFY_KEYS, set())
            if "tolerance" in v:
                val = ck.number(v["tolerance"], "verify.tolerance", lo=0.0)
                verify_tolerance = verify_tolerance if val is None else val

    # semantic rules across sections
    if weak is not None:
        v_bar = weak.support.hi
        if mechanism == "sa_reserve" and reserve is not None and reserve < v_bar:
            ck.fail("mechanism.reserve",
                    f"reserve {reserve} below the weak support top {v_bar}; the "
                    "reserve mechanism requires r >= v_bar")
        if strong_atom is not None and strong_atom.k <= v_bar:
            ck.fail("strong.atom.k",
                    f"atom value {strong_atom.k} must exceed the weak support top {v_bar}")
        if (strong_atom is not None and mechanism == "ta_discrete"
                and strong_atom.p * strong_atom.k <= v_bar):
            ck.fail("strong.atom",
                    f"p*k = {strong_atom.p * strong_atom.k:.6g} <= v_bar = {v_bar}: "
                    "the all-in equilibrium is not guaranteed")
        if family is not None and family.k <= v_bar:
            ck.fail("strong.family.k",
                    f"atom k={family.k} must exceed the weak support top {v_bar}")
    if mechanism == "sa_reserve" and reserve is None:
        ck.fail("mechanism.reserve", "required for sa_reserve")
    if mechanism not in (None, "sa_reserve") and reserve is not None:
        ck.fail("mechanism.reserve", f"{mechanism} does not take a reserve")
    if mechanism == "ta_intervention" and intervention_p is None:
        ck.fail("mechanism.intervention_p", "required for ta_intervention")
    if mechanism not in (None, "ta_intervention") and intervention_p is not None:
        ck.fail("mechanism.intervention_p", f"{mechanism} does not take intervention_p")
    if mechanism == "ta_discrete" and strong_atom is None:
        ck.fail("strong.atom", "ta_discrete requires a two-point strong spec")
    if mechanism in ("ta", "sa", "sa_reserve", "ta_intervention") and strong_dist is None:
        if mechanism is not None and "mechanism" in obj:
            ck.fail("strong.dist", f"{mechanism} requires a continuous strong distribution")

    if ck.errors:
        raise ConfigError(ck.errors)

    return ExperimentConfig(
        version=version or "1",
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
        verify_tolerance=verify_tolerance,
        raw=obj,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([("", f"not valid JSON: {exc}")]) from exc
    return parse_config(obj)
