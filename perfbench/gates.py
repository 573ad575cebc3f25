"""Correctness gates. Each returns a failure message, or None when it passes.

The deterministic tolerances are those of the tier-1 acceptance tests. The
Monte Carlo gate uses Z standard errors: at Z = 5 a correct estimate fails
with probability 5.7e-7 per gate (two-sided normal tail), so over the few
thousand gates that all benchmark runs evaluate a false failure stays
unlikely, while an estimate 10 SE off always fails.
"""

from __future__ import annotations

import math

import numpy as np

Z = 5.0
REGRET_TOL = 1e-4          # times v_bar
RESIDUAL_TOL = 1e-6
ANCHOR_TOL = 1e-6


def regret(max_regret: float, v_bar: float) -> str | None:
    if not max_regret <= REGRET_TOL * v_bar:
        return f"regret {max_regret:.3g} > {REGRET_TOL:g} * v_bar"
    return None


def residual(max_ode_residual: float) -> str | None:
    if not max_ode_residual <= RESIDUAL_TOL:
        return f"max ODE residual {max_ode_residual:.3g} > {RESIDUAL_TOL:g}"
    return None


def anchor(bid, n_weak: int, v_bar: float) -> str | None:
    """Uniform weak against U[0, 2 v_bar]: b(v) = 2N/(N+1) v exactly."""
    v = np.linspace(0.0, v_bar, 1001)
    err = float(np.max(np.abs(bid(v) - 2.0 * n_weak / (n_weak + 1.0) * v)))
    if not err <= ANCHOR_TOL:
        return f"anchor error {err:.3g} > {ANCHOR_TOL:g} at N={n_weak}"
    return None


def within_z(mean: float, se: float, exact: float) -> str | None:
    if not (math.isfinite(mean) and se > 0.0 and abs(mean - exact) <= Z * se):
        return f"estimate {mean!r} (SE {se:.3g}) not within {Z:g} SE of {exact!r}"
    return None


def identical(a, b, what: str) -> str | None:
    """Bit-identity of two results (arrays, floats or bytes)."""
    if isinstance(a, bytes) or isinstance(b, bytes):
        same = a == b
    else:
        a, b = np.asarray(a), np.asarray(b)
        same = a.shape == b.shape and a.tobytes() == b.tobytes()
    return None if same else f"{what} differs"
