"""Start-up and computation load no scipy.

The lab's runtime needs numpy only, the CLI pays for every module it imports
on every command, and scipy's packages take most of a second to import. A fresh
interpreter imports the lab, runs its main computations on a law of every kind
(uniform, cosine bump, piecewise linear, and mixtures of them) and reports the
scipy modules it loaded: none.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys, warnings
import numpy as np

warnings.simplefilter("ignore", RuntimeWarning)


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


import talab.cli
from talab import dist, equilibrium as eq, mechanisms, myerson, sequences

seen = {"import": scipy_modules()}
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
seen["compute"] = scipy_modules()
print(json.dumps(seen))
"""


def test_no_scipy_on_import_or_computation():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["import"] == []
    assert seen["compute"] == []
