"""Span tracing of talab's public functions, applied from outside the library.

A ``Tracer`` replaces each traced function with a wrapper that records a span
(name, start, end, parent) in memory. It patches the defining module and every
other ``talab`` module that bound the same object with ``from .x import y``,
so calls routed through ``talab.sequences.solve_ode`` or
``talab.myerson.uniform_block`` are seen too. ``restore`` undoes every patch.

Spans under an *opaque* span are not recorded: their time stays in the opaque
span's self time. ``dist`` functions are opaque (the bisection's own cdf calls
belong to the inverse cdf), and so is ``solve_ode`` (its scalar right-hand side
calls the law pointwise about ten thousand times per solve). Call counts
(``<name>.calls``) include calls under opaque spans; points and self times
do not.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

import numpy as np


def _size(_args, result):
    return int(np.size(result))


def _file_bytes(args, _result):
    return os.path.getsize(args[0])


class Tracer:
    """In-memory span recorder; ``install`` patches, ``restore`` unpatches."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.max_residual = 0.0
        self._stack: list[int] = []
        self._opaque = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, points=None, opaque=False):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if self._opaque:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            self._opaque += opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                self._opaque -= opaque
                stack.pop()
                spans[idx][2] = clock()
            if points is not None:
                key, measure = points
                counts[key] += measure(args, result)
            return result

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _solve(self, fn):
        def on_result(_args, result):
            bid, report = result
            self.max_residual = max(self.max_residual, report.max_ode_residual)
            return int(bid.grid.size)

        return self._span("equilibrium.solve_ode", fn,
                          ("equilibrium.solve_ode.nodes", on_result), opaque=True)

    # -- patching --------------------------------------------------------------

    def _patch_attr(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module_name, attr, make):
        """Patch module.attr and every talab module that bound the same object."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "talab" or name.startswith("talab.")) and \
                    getattr(mod, attr, None) is original:
                self._patch_attr(mod, attr, wrapped)

    def install(self):
        from talab import dist, equilibrium, myerson

        s = self._span
        self._patch_attr(dist.DistributionSpec, "__post_init__",
                         s("dist.construct", dist.DistributionSpec.__post_init__, opaque=True))
        self._patch_attr(dist.DistributionSpec, "quantile",
                         s("dist.quantile", dist.DistributionSpec.quantile,
                           ("dist.quantile.points", _size), opaque=True))
        self._patch_attr(dist.DistributionSpec, "cdf",
                         s("dist.cdf", dist.DistributionSpec.cdf,
                           ("dist.cdf.points", _size), opaque=True))
        self._patch_attr(equilibrium.BidFunction, "__call__",
                         s("equilibrium.BidFunction.call", equilibrium.BidFunction.__call__,
                           ("equilibrium.BidFunction.call.points", _size)))
        self._patch_attr(equilibrium.StrongBidLaw, "eval3",
                         self._count("equilibrium.eval3.calls",
                                     equilibrium.StrongBidLaw.eval3))
        self._patch_attr(myerson.VirtualValueFn, "__call__",
                         s("myerson.VirtualValueFn.call", myerson.VirtualValueFn.__call__,
                           ("myerson.VirtualValueFn.call.points", _size)))

        self._patch_function("talab.rng", "uniform_block", lambda f: s(
            "rng.uniform_block", f, ("rng.uniform_block.uniforms", _size)))
        self._patch_function("talab.equilibrium", "solve_ode", self._solve)
        self._patch_function("talab.equilibrium", "verify_best_response",
                             lambda f: s("equilibrium.verify_best_response", f))
        self._patch_function("talab.mechanisms", "simulate", lambda f: s(
            "mechanisms.simulate", f,
            ("mechanisms.replicates", lambda _a, r: r["revenue"].n)))
        self._patch_function("talab.myerson", "ironed_virtual",
                             lambda f: s("myerson.ironed_virtual", f))
        self._patch_function("talab.myerson", "oa_revenue", lambda f: s(
            "myerson.oa_revenue", f, ("myerson.oa_revenue.replicates", lambda _a, r: r.n)))
        self._patch_function("talab.sequences", "run_limit_experiment", lambda f: s(
            "sequences.run_limit_experiment", f,
            ("sequences.rows", lambda _a, r: len(r.rows))))
        self._patch_function("talab.config", "load_config",
                             lambda f: s("config.load_config", f))
        for attr in ("write_json", "write_csv"):
            self._patch_function("talab.cli", attr, lambda f: s(
                "cli.write", f, ("cli.bytes_written", _file_bytes)))
        self._patch_function("talab.cli", "run", lambda f: s("cli.run", f))
        return self

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.max_residual = 0.0

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time of direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def dump(self) -> list[dict]:
        return [{"name": n, "start": a, "end": b, "parent": p} for n, a, b, p in self.spans]
