"""A fixed reference kernel that samples how fast the host runs right now.

The benchmark shares a small virtual machine with other tenants, and its CPU
runs up to twice as slow for tens of seconds at a time; raw wall-clock
figures of the same code on the same inputs moved by 25-40% between runs.
Timed runs therefore sample this kernel between requests and divide their
wall times by the run's median kernel time over REFERENCE_MS: the figures
read as milliseconds on a host running the kernel in REFERENCE_MS.

The kernel does what matchdyn's hot path does, many small numpy arrays
made and reduced from Python, plus one strided pass over a buffer larger
than the caches so that it slows with memory contention too.  Of the kernels
tried it tracked the program's slowdowns best; over 37 sl2c runs, raw
ms/junction spread 30% (IQR/median) and scaled 7%, and fitting the exponent
of the host factor gave 1.0-1.1 on all four workloads.  It never touches the
package, so a change to matchdyn cannot move it.
"""
from __future__ import annotations

import time

import numpy as np

# kernel time between requests on a quiet 2-vCPU x86-64 host (CPython 3.11,
# numpy 2.4), where scaled figures read close to raw wall time
REFERENCE_MS = 3.0

_BUFFER = np.ones(1 << 20)  # 8 MB


def kernel():
    acc = 0.0
    for i in range(300):
        a = np.array([0.1 * i, 0.2, 0.3, 0.4])
        b = np.concatenate([a, a[:3]])
        acc += float(b @ b) + float(np.linalg.norm(a))
    return acc + float(_BUFFER[::8].sum()) + float(_BUFFER[1::8].sum())


def sample():
    """Wall time of one kernel run, in seconds."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t
