"""Reference work that measures how fast the host runs the benchmark right now.

The benchmark runs on a few vCPUs of a shared host.  When other tenants load
the host, the same instructions take longer for minutes at a time: a spin
pass that takes 5.3 s on a quiet host took 7 to 10 s in a loaded period, and a
search pass 6.1 s against 8 to 12 s.  The guest sees almost none of this as
steal time, and a median over the passes of one run cannot remove it, because
the slowdown outlasts the run.

So right after each op, outside its timed interval, the benchmark runs
chunks of fixed reference work, as many as take about a tenth of the op's
time.  Their mean time over CHUNK_NOMINAL_S is the speed factor, and the op's
latency is divided by it: latencies read as seconds on a host that runs the
chunk in CHUNK_NOMINAL_S.  The factor is taken per op, not per pass, because
the load also changes within a pass of a few seconds.  A change to the
library changes the op times but not the chunk, so its effect passes through
unscaled.  The chunk imports nothing from the library.

The chunk mixes what the workloads spend their time on: interpreter loops
over ints and dicts, small numpy calls, a Philox stream, a float array
reduction and a JSON encode.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

# Chunk time on the AMD EPYC 2-vCPU guest where the benchmark was defined.
# Only ratios matter; the constant fixes the scale the times are read in.
CHUNK_NOMINAL_S = 0.00035
# Reference time spent per second of op time.
REF_SHARE = 0.1

_KEY = np.array([7, 11], dtype=np.uint64)
_FLOATS = np.arange(4096.0)


def chunk() -> int:
    """One chunk of fixed reference work; returns a value so nothing is skipped."""
    acc = 0
    table = {}
    for i in range(2400):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 63] = acc
    rows = [[float(k), math.sqrt(v)] for k, v in table.items()]
    gen = np.random.Generator(np.random.Philox(key=_KEY))
    v = np.zeros(3)
    for _ in range(100):
        u = np.array([gen.random(), 0.5, 0.25])
        v = v + u / float(np.linalg.norm(u))
    total = float((_FLOATS * 0.5).sum())
    return len(json.dumps(rows)) + acc + int(v[0] + total)


def chunks_for(op_seconds: float) -> int:
    """How many chunks to run after an op that took `op_seconds`."""
    return max(1, round(REF_SHARE * op_seconds / CHUNK_NOMINAL_S))


def measure_speed(count: int) -> float:
    """Run `count` chunks; their mean time over CHUNK_NOMINAL_S."""
    t0 = time.perf_counter()
    for _ in range(count):
        chunk()
    return (time.perf_counter() - t0) / count / CHUNK_NOMINAL_S
