"""Start-up and computation load no module a run does not use.

The lab's runtime needs numpy only, the CLI pays for every module it imports
on every command, and scipy's packages take most of a second to import. A fresh
interpreter imports the lab, runs its main computations on a law of every kind
(uniform, cosine bump, piecewise linear, and mixtures of them) and reports the
scipy modules it loaded: none. Nor does it load three modules a one-thread
run has no use for: ``numpy.ma`` (``np.unique`` imports it on its first call, so
the cdf table dedupes its grid itself), ``numpy.polynomial`` (the Gauss-Legendre
rule is written out) and ``concurrent.futures`` (the thread pool). The pool
loads when a Monte Carlo run asks for two threads, and that run keeps the
one-thread estimates' bits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys, warnings
import numpy as np

warnings.simplefilter("ignore", RuntimeWarning)
UNUSED = ("numpy.ma", "numpy.polynomial", "concurrent.futures")


def loaded(names):
    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))


import talab.cli
from talab import dist, equilibrium as eq, mechanisms, myerson, sequences

seen = {"import": loaded(("scipy",)), "import_unused": loaded(UNUSED)}
weak, strong = dist.uniform(0.0, 1.0), dist.uniform(0.0, 2.0)
fam = sequences.make_family("slow_drain", 2.0, 2.5, 8)
pw = dist.from_json_dict({"kind": "pw_linear", "params": [0.0, 0.5, 1.0, 1.5, 2.0, 0.5],
                          "support": [0.0, 2.0]})
for law in (strong, fam.member(8), pw):
    bid, _ = eq.solve_ode(weak, law, 2)
    eq.verify_best_response(bid, weak, law, 2)
    bid(np.linspace(0.0, 1.0, 5000))
    spec = mechanisms.AuctionSpec("ta", 2, weak, law, bid_fn=bid)
    mechanisms.simulate(spec, 1 << 15, 1)
    myerson.oa_revenue(weak, law, 2, 1 << 15, 2)
    mechanisms.sa_reserve_closed_form(weak, law, 2, 1.2)
    law.quantile(np.linspace(0.0, 1.0, 101))
sequences.check_atom_convergence(fam)
for law in (weak, fam.member(8), pw):
    law.order_statistic_mean(3, 2)
    law.mean_above(0.5)
one = mechanisms.simulate(spec, 1 << 16, 3)
seen["compute"] = loaded(("scipy",))
seen["compute_unused"] = loaded(UNUSED)
two = mechanisms.simulate(spec, 1 << 16, 3, threads=2)
seen["threads"] = loaded(UNUSED)
seen["estimates"] = [[repr(r[k]) for k in ("revenue", "surplus")] for r in (one, two)]
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def seen():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_scipy_on_import_or_computation(seen):
    assert seen["import"] == []
    assert seen["compute"] == []


def test_one_thread_run_loads_no_unused_module(seen):
    assert seen["import_unused"] == []
    assert seen["compute_unused"] == []


def test_two_thread_run_loads_the_pool_and_keeps_the_bits(seen):
    assert "concurrent.futures" in seen["threads"]
    one, two = seen["estimates"]
    assert one == two
