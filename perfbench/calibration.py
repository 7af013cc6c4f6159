"""Machine-speed calibration for the end-to-end timings.

On a shared 2-vCPU virtual machine the same code runs up to 1.5x slower for
stretches of seconds to minutes, which moved whole 25-second runs' medians
by 20-30%.  To keep runs comparable, the op loop measures ``rate()``
of a fixed pure-Python kernel (library-independent, interpreter-bound float
and container work like the library's own) right before and after every
slice of ops, and scales each op's wall time by ``rate / REF_RATE``: the
time the op would have taken on a machine where the kernel runs at
``REF_RATE`` calls per second.  A change to the library moves the op time
and not the kernel, so it shows in full; a slow phase of the machine slows
both and cancels.

A child process spends most of its time in interpreter start-up (exec,
loading extension modules, unmarshalling bytecode), which the in-process
kernel tracks poorly.  Op loops whose ops are child processes use
``spawn_speed`` instead: the time of one bare ``python -c pass`` start
against ``REF_SPAWN_S``.  The library plays no part in either measurement.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

#: Kernel calls per second that define the reference speed (about the
#: median rate on the shared 2-vCPU virtual machine the benchmark was tuned on).
REF_RATE = 100_000.0
#: How long one ``rate()`` measurement runs the kernel, in seconds.
RATE_SECONDS = 0.02
#: Seconds one bare interpreter start takes at the reference speed.
REF_SPAWN_S = 0.06


def kernel() -> float:
    total, p, x = 0.0, 1.0, 0.37
    for k in range(1, 40):
        p *= x
        total += p / (k * k)
    acc = [math.log1p(k * 0.01) * total for k in range(24)]
    return sum(acc)


def rate() -> float:
    """Kernel calls per second, measured over at least ``RATE_SECONDS``."""
    clock = time.perf_counter
    t0 = clock()
    calls = 0
    while True:
        for _ in range(16):
            kernel()
        calls += 16
        elapsed = clock() - t0
        if elapsed >= RATE_SECONDS:
            return calls / elapsed


def kernel_speed() -> float:
    """The machine's speed relative to the reference, from the kernel."""
    return rate() / REF_RATE


def spawn_speed(env: dict[str, str]) -> float:
    """The machine's speed relative to the reference, from one bare
    interpreter start with ``env``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return REF_SPAWN_S / (time.perf_counter() - t0)
