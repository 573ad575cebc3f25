"""Reference seconds: wall time rescaled by the host's speed measured around it.

The host's 2 vCPUs are shared with other tenants, and the same work takes 1.0x
to 2.0x its quiet-host time, drifting over tens of seconds. A fixed kernel
timed just before and just after an operation measures the host's speed at
that moment; an operation's time in reference seconds is

    t_ref = t_wall * REF_KERNEL_S / mean(kernel time before, kernel time after)

so it reads as the time the operation takes when the kernel runs in
REF_KERNEL_S. The kernel mixes a plain arithmetic loop, a scalar loop of math
calls and branches (like the ODE's right-hand side) and a NumPy ufunc over a
fixed array (like the Monte Carlo blocks). It shares no code with talab, so a
change to the library leaves it unchanged.

Set-up runs in fresh interpreters and is mostly module import (scipy alone is
about 1 s of it), which the kernel tracks poorly. Its reference is a fresh
interpreter that imports only numpy, spawned just before and just after each
set-up child:

    t_ref = t_wall * REF_INTERPRETER_S / mean(interpreter before, interpreter after)
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

REF_KERNEL_S = 3.4e-4      # the kernel's mean time when the development host was quiet
_CALLS = 20                # one sample: about 7 ms of kernel calls
REF_INTERPRETER_S = 0.12   # INTERPRETER's time when the development host was quiet
INTERPRETER = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
_X = np.linspace(0.0, 1.0, 20_000)


def kernel() -> float:
    s = 0.0
    for i in range(1500):
        s += i * 0.5
    for i in range(600):
        s += math.sin(i * 1e-3) * math.cos(i * 2e-3) + (1.0 if i > 300 else 0.5)
    return s + float(np.sin(_X).sum())


def sample() -> float:
    """Mean kernel time over a short burst of back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(_CALLS):
        kernel()
    return (time.perf_counter() - t0) / _CALLS


def to_ref(seconds: float, before: float, after: float) -> float:
    """Wall seconds measured between two samples, in reference seconds."""
    return seconds * REF_KERNEL_S / (0.5 * (before + after))


def time_ready(cmd: list[str], cwd) -> float:
    """Seconds from spawning ``cmd`` until it prints ``ready``; it must exit 0."""
    t0 = time.perf_counter()
    child = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    elapsed = time.perf_counter() - t0
    child.stdout.close()
    if child.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd[1:3]} failed (exit {child.returncode})")
    return elapsed


def interpreter_to_ref(seconds: float, before: float, after: float) -> float:
    """Wall seconds of a fresh interpreter's work, in reference seconds, given
    the INTERPRETER times just before and just after it."""
    return seconds * REF_INTERPRETER_S / (0.5 * (before + after))
