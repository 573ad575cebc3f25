"""Experiment configuration: strict JSON schema and stable hashing.

Configs are plain JSON objects. ``KEYS`` states each key once: its path, its
kind, whether it is required, its number bounds and, where no constructor has
one, its default. One walk checks a config against it and collects every
violation with its path before raising; unknown keys are refused everywhere.
Each rule of the model is stated once, in the domain module it concerns (the
constructors ``KEYS`` names, ``RULES``, and the rule of each subcommand in
``COMMANDS``); config calls it and files its refusal under the config path of
the field it names, so all that a config decides is refused before any
computation starts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from . import dist
from .dist import DistributionError, DistributionSpec
from .equilibrium import InputError, SolveOptions, check_bid_ode
from .mechanisms import DiscreteAtomSpec, check_auction
from .myerson import check_oa
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


ONE_OF = "one of"


@dataclass(frozen=True)
class Key:
    """One config key. ``kind`` is int or float (a finite number, >= ``lo``
    and < ``hi``), DistributionSpec (a distribution object), a tuple of the
    values allowed, None (any value, judged by the rule that reads it) or, for
    an object, dict (a plain section), ONE_OF (a section that holds exactly
    one of its keys and stands for it) or the constructor its keys are passed
    to by name. ``fills`` names the ExperimentConfig field the value fills."""

    kind: object = None
    required: bool = False
    lo: float | None = None
    hi: int | None = None
    default: object = None
    fills: str | None = None


# every config key, by path; a default only where no constructor has one
KEYS = {
    "version": Key(("1",), required=True),
    "n_weak": Key(int, required=True, fills="n_weak"),
    "weak": Key(DistributionSpec, fills="weak"),
    "strong": Key(ONE_OF),
    "strong.dist": Key(DistributionSpec, fills="strong_dist"),
    "strong.atom": Key(DiscreteAtomSpec, fills="strong_atom"),
    "strong.atom.k": Key(float, required=True),
    "strong.atom.p": Key(float, required=True),
    "strong.family": Key(FamilySpec, fills="family"),
    "strong.family.kind": Key(required=True),
    "strong.family.k": Key(float, required=True),
    "strong.family.w_bar": Key(float, required=True),
    "strong.family.size": Key(int, default=8),
    "strong.family.atom_share": Key(float),
    "strong.family.split_p": Key(float),
    "mechanism": Key(dict),
    "mechanism.kind": Key(required=True, fills="mechanism"),
    "mechanism.reserve": Key(float, fills="reserve"),
    "mechanism.intervention_p": Key(float, fills="intervention_p"),
    "solver": Key(SolveOptions, default=SolveOptions(), fills="solver"),
    "solver.v0_fraction": Key(float, lo=1e-12),
    "solver.rk_tolerance": Key(float, lo=1e-14),
    "solver.residual_tolerance": Key(float, lo=1e-14),
    "mc": Key(dict),
    "mc.n": Key(int, lo=1, default=100_000, fills="mc_n"),
    # the Philox key; sweep row l keys seed * 2^64 + l
    "mc.seed": Key(int, lo=0, hi=2**64, default=0, fills="mc_seed"),
    "sweep": Key(dict),
    "sweep.prop": Key(required=True, fills="sweep_prop"),
    "sweep.rule": Key(ReserveRule, fills="sweep_rule"),
    "sweep.rule.kind": Key(required=True),
    "sweep.rule.value": Key(float),
    "sweep.rule.eps": Key(float),
    "sweep.intervention_p": Key(float, fills="sweep_intervention_p"),
    "verify": Key(dict),
    "verify.tolerance": Key(float, lo=0.0, default=1e-4, fills="verify_tolerance"),
}

# the model rules that read more than one section: (rule, the config path of
# each argument, the paths that must hold a valid value for it to run)
RULES = (
    (check_auction, {"kind": "mechanism.kind", "n_weak": "n_weak", "weak": "weak",
                     "strong": "strong", "reserve": "mechanism.reserve",
                     "intervention_p": "mechanism.intervention_p"}, ("mechanism", "weak")),
    (check_experiment, {"prop": "sweep.prop", "fam": "strong.family", "weak": "weak",
                        "n_weak": "n_weak", "rule": "sweep.rule",
                        "intervention_p": "sweep.intervention_p"},
     ("sweep", "strong.family", "weak")),
)

_BID_ODE = {"weak": "weak", "strong": "strong.dist", "n_weak": "n_weak"}
# subcommand: (the paths it needs, its own rule and that rule's arguments)
COMMANDS = {
    "solve": (("weak", "strong.dist"), check_bid_ode, _BID_ODE),
    "verify": (("weak", "strong.dist"), check_bid_ode, _BID_ODE),
    "simulate": (("weak", "mechanism"), None, {}),
    "oa": ((), check_oa, {"weak": "weak", "strong": "strong", "n_weak": "n_weak"}),
    "sweep": (("weak", "strong.family", "sweep"), None, {}),
    "check-family": (("strong.family",), None, {}),
}


def _children(prefix: str) -> dict[str, str]:
    """Name -> path of each key in the object at prefix."""
    return {path.rpartition(".")[2]: path for path in KEYS
            if path.rpartition(".")[0] == prefix}


class _Checker:
    """One walk over a config: ``errors`` lists every violation, ``vals`` the
    valid value at each path, ``bad`` each path refused or missing (and every
    object holding one), ``member`` the path a ONE_OF section stands for."""

    def __init__(self):
        self.errors: list[tuple[str, str]] = []
        self.vals: dict[str, object] = {}
        self.bad: set[str] = set()
        self.member: dict[str, str] = {}

    def fail(self, path: str, msg: str):
        self.errors.append((path, msg))
        self.bad.add(path)

    def section(self, obj: dict, prefix: str):
        """Check the keys of the object at prefix against KEYS and record
        their values; an unknown key is refused but does not make it bad."""
        keys = _children(prefix)
        for name in sorted(set(obj) - set(keys)):
            self.fail(f"{prefix}.{name}" if prefix else name, "unknown key")
        for name, path in keys.items():
            key = KEYS[path]
            if name in obj:
                self.value(obj[name], path, key)
            elif key.required:
                self.fail(path, "missing required key")
            elif key.default is not None:
                self.vals[path] = key.default
            if path in self.bad and prefix:
                self.bad.add(prefix)

    def value(self, val, path: str, key: Key):
        kind = key.kind
        if kind in (int, float):
            val = self.number(val, path, key.lo, key.hi, integer=kind is int)
        elif kind is DistributionSpec:
            val = self.distribution(val, path)
        elif isinstance(kind, tuple):
            if val not in kind:
                self.fail(path, f"unsupported {path} {val!r}")
        elif kind is not None:
            if not isinstance(val, dict):
                self.fail(path, "expected an object")
                return
            self.section(val, path)
            val = self.build(val, path, kind)
        if path not in self.bad:
            self.vals[path] = val

    def build(self, obj: dict, path: str, kind):
        """The value of a section: the object itself, the value of a ONE_OF
        section's one key, or the constructor called on its keys, which runs
        only if none of them is refused or missing."""
        keys = _children(path)
        if kind is ONE_OF:
            given = [p for name, p in keys.items() if name in obj]
            if len(given) != 1:
                self.fail(path, f"exactly one of {sorted(keys)} required")
            elif path not in self.bad:
                self.member[path] = given[0]
                return self.vals[given[0]]
            return None
        if kind is dict or path in self.bad:
            return obj
        out = self.domain(keys, kind, **{name: self.vals[p] for name, p in keys.items()
                                         if p in self.vals})
        if out is None:
            self.bad.add(path)
        return out

    def number(self, val, path, lo=None, hi=None, integer=False):
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
        elif integer and int(val) != val:
            self.fail(path, f"expected an integer, got {val}")
        elif lo is not None and val < lo:
            self.fail(path, f"must be >= {lo}, got {val}")
        elif hi is not None and val >= hi:
            self.fail(path, f"must be < {hi}, got {val}")
        else:
            return int(val) if integer else float(val)
        return None

    def distribution(self, obj, path: str) -> DistributionSpec | None:
        if not isinstance(obj, dict):
            self.fail(path, "expected a distribution object")
            return None
        try:
            return dist.from_json_dict(obj)
        except DistributionError as exc:
            for name, msg in exc.faults:
                self.fail(f"{path}.{name}", msg)
            if not exc.faults:
                self.fail(path, str(exc))
        except (ValueError, TypeError, OverflowError) as exc:
            self.fail(path, str(exc))
        self.bad.add(path)
        return None

    def domain(self, paths: dict[str, str], fn, **kwargs):
        """fn(**kwargs), or None once its refusal is recorded at the config
        path of the field it names."""
        try:
            return fn(**kwargs)
        except InputError as exc:
            self.fail(refusal_path(exc.field, paths), str(exc))
            return None

    def rule(self, fn, args: dict[str, str], needs):
        """fn on the values at the paths in args, once every path in needs
        holds a valid value and no path in args is refused; a ONE_OF section
        is read, and a refusal of it filed, at the key it holds."""
        if all(p in self.vals for p in needs) and not any(p in self.bad for p in args.values()):
            self.domain({arg: self.member.get(p, p) for arg, p in args.items()}, fn,
                        **{arg: self.vals.get(p) for arg, p in args.items()})


def parse_config(obj: dict, command: str | None = None) -> ExperimentConfig:
    """Check a config, and what subcommand ``command`` needs of it; raises
    ConfigError listing every violation."""
    if not isinstance(obj, dict):
        raise ConfigError([("", "config must be a JSON object")])
    ck = _Checker()
    ck.section(obj, "")
    rules = list(RULES)
    if command is not None:
        needs, rule, args = COMMANDS[command]
        for path in needs:
            if path not in ck.vals and path not in ck.bad:
                ck.fail(path, f"required by {command}")
        if rule is not None:
            rules.append((rule, args, needs))
    for rule, args, needs in rules:
        ck.rule(rule, args, needs)
    if ck.errors:
        raise ConfigError(ck.errors)
    return ExperimentConfig(**{key.fills: ck.vals.get(path, key.default)
                               for path, key in KEYS.items() if key.fills}, raw=obj)


def read_json(path: str):
    """The JSON value in the file at path; a ConfigError at path "" if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:     # the JSON and UTF-8 decode errors are ValueErrors
        raise ConfigError([("", f"cannot read {path} as JSON: {exc}")]) from exc


def load_config(path: str, command: str, seed: int | None = None) -> ExperimentConfig:
    """The config at path checked for subcommand ``command``, with ``mc.seed``
    replaced by seed if one is given; the hash covers the replaced seed."""
    obj = read_json(path)
    # a malformed config or mc is left for parse_config to report
    if seed is not None and isinstance(obj, dict) and isinstance(obj.get("mc", {}), dict):
        obj = {**obj, "mc": {**obj.get("mc", {}), "seed": seed}}
    return parse_config(obj, command)
