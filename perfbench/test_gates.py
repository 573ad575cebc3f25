"""Each correctness gate of the benchmark can fail.

    python3 -m pytest -q perfbench/test_gates.py

Run from the root of a checkout; like the benchmark, it imports talab from src/.
"""

import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import gates  # noqa: E402
from talab import dist, mechanisms  # noqa: E402
from talab import equilibrium as eq  # noqa: E402

WEAK, STRONG = dist.uniform(0.0, 1.0), dist.uniform(0.0, 2.0)
BID, _ = eq.solve_ode(WEAK, STRONG, 2)
TA = mechanisms.AuctionSpec("ta", 2, WEAK, STRONG, bid_fn=BID)


def _scaled(bid, factor):
    return eq.BidFunction(bid.grid, factor * bid.values, factor * bid.slopes)


def test_anchor_gate_fails_on_one_percent_overbid():
    assert gates.anchor(BID, 2, 1.0) is None
    assert gates.anchor(_scaled(BID, 1.01), 2, 1.0) is not None


def test_regret_gate_fails_on_ten_percent_overbid():
    assert gates.regret(eq.verify_best_response(BID, WEAK, STRONG, 2).max_regret, 1.0) is None
    over = eq.verify_best_response(_scaled(BID, 1.10), WEAK, STRONG, 2)
    assert gates.regret(over.max_regret, 1.0) is not None


def test_residual_gate_threshold():
    assert gates.residual(5.0004e-7) is None
    assert gates.residual(1.01e-6) is not None
    assert gates.residual(float("nan")) is not None


def test_z_gate_fails_at_ten_standard_errors():
    rev = mechanisms.simulate(TA, 1 << 16, seed=5)["revenue"]
    assert gates.within_z(rev.mean, rev.std_error, 2.0 / 3.0) is None
    for shift in (10.0, -10.0):
        assert gates.within_z(rev.mean + shift * rev.std_error, rev.std_error,
                              2.0 / 3.0) is not None


def test_identity_gate_fails_on_thread_mismatch(monkeypatch):
    n = 3 * (1 << 15) + 5
    one = np.stack(mechanisms.simulate_draws(TA, n, 7, threads=1))
    two = np.stack(mechanisms.simulate_draws(TA, n, 7, threads=2))
    assert gates.identical(one, two, "threads") is None

    real = mechanisms.uniform_block

    def skewed(seed, first, count, stride):
        # worker threads read another stream: thread count now changes results
        if threading.current_thread() is not threading.main_thread():
            seed += 1
        return real(seed, first, count, stride)

    monkeypatch.setattr(mechanisms, "uniform_block", skewed)
    forced = np.stack(mechanisms.simulate_draws(TA, n, 7, threads=2))
    assert gates.identical(one, forced, "threads") is not None


def test_identity_gate_compares_bytes():
    assert gates.identical(b"body", b"body", "sweep") is None
    assert gates.identical(b"body", b"bodx", "sweep") is not None
