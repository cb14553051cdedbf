"""Machine-speed calibration: a fixed piece of work timed between invocations.

The benchmark's host is a few cores of a shared machine. The children's CPU
times leave out what the hypervisor steals, but neighbours still slow each
instruction, by tens of percent over minutes. `run.py` times this kernel, in
its own CPU seconds, REPEATS times right before and right after each
invocation, and scales the invocation's times by
REFERENCE_S / (median of those kernel times). A result is then in reference
seconds: the CPU seconds the invocation would have taken on a host that runs
this kernel in REFERENCE_S.

The kernel is shaped like the estimators' hot path but uses no code of the
package, so no change to the package moves it: a pure-Python loop (the
per-sample loop), Philox generators seeded per cell with a short Bernoulli
row each (the substream and symbol sampler), and batched Gram, Cholesky and
solve on small matrices (the low-rank Gaussian kernel). It runs in the
benchmark's parent process, single-threaded like the children.
"""

from __future__ import annotations

import time

import numpy as np

# median of kernel() on the 2-vCPU host the benchmark was defined on; any
# fixed value works, it only sets the unit
REFERENCE_S = 0.23

REPEATS = 3
PY_LOOP = 150_000
STREAMS = 2_000
BATCHES = 12
BATCH, ROWS, WIDTH = 256, 10, 400


def kernel() -> float:
    """CPU seconds of this process to run the fixed calibration work once."""
    start = time.process_time()
    acc, table = 0.0, {}
    for i in range(PY_LOOP):
        acc += (i % 13) * 0.5
        table[i & 1023] = acc
    key = np.array([7, 0], dtype=np.uint64)
    for i in range(STREAMS):
        key[1] = i
        rng = np.random.Generator(np.random.Philox(key=key))
        acc += float((rng.random(80) < 0.5).astype(float).sum())
    rng = np.random.Generator(np.random.Philox(key=np.array([7, STREAMS], dtype=np.uint64)))
    x = rng.standard_normal((BATCH, WIDTH))
    rows = rng.standard_normal((BATCH, ROWS, WIDTH))
    for _ in range(BATCHES):
        gram = np.einsum("sjn,skn->sjk", rows, rows) + WIDTH * np.eye(ROWS)
        proj = np.einsum("sjn,sn->sj", rows, x)
        chol = np.linalg.cholesky(gram)
        z = np.linalg.solve(chol, proj[:, :, None])[:, :, 0]
        acc += float(np.log(np.diagonal(chol, axis1=1, axis2=2)).sum() + (z * z).sum())
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite result")
    return time.process_time() - start


def sample() -> list[float]:
    """REPEATS timings of the kernel, back to back."""
    return [kernel() for _ in range(REPEATS)]
