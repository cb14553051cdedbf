"""One `uwbbounds run` invocation inside a benchmark child process.

    python child.py plain|trace CONFIG OUT REPORT

Calls `uwbbounds.cli.main(["run", ...])` in this process with timing
wrappers installed at the names the package looks its callees up by. Names
bound with `from ... import` are looked up in the importing module, so the
wrappers replace `uwbbounds.bounds.substream`, not `uwbbounds.mc.substream`.

`plain` wraps only the two estimator entry points the CLI calls, once per CSV
row, to time each row and the set-up before the first one, in wall and in
this process's CPU seconds. `trace` also
wraps every per-layer site. Aggregates stay in memory and REPORT (JSON) is
written once the run has ended. The estimators run single-threaded
(UWBBOUNDS_THREADS=1), so the span stack needs no lock.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np

from uwbbounds import bounds, cli, model

# (module or class, attribute, span name); the first two are the row spans
ROW_SITES = [
    (cli, "lower_bound", "bounds.lower_bound"),
    (cli, "upper_bound", "bounds.upper_bound"),
]
LAYER_SITES = [
    (cli, "load_config", "config.load_config"),
    (cli, "run_sweep", "cli.run_sweep"),
    (bounds, "substream", "mc.substream"),
    (bounds, "sample_symbols", "model.sample_symbols"),
    (bounds, "sample_channel", "model.sample_channel"),
    (bounds, "log_gauss_lowrank", "gaussian.log_gauss_lowrank"),
    (bounds, "normal_qq_corr", "mc.normal_qq_corr"),
    (bounds.LogAccumulator, "from_log_values", "mc.from_log_values"),
    (model.ScenarioConfig, "tap_covariance", "model.tap_covariance"),
]


def kernel_work(x, noise_var, rows, tap_factor) -> tuple[int, int, int]:
    """(instances, flops, bytes) of one log_gauss_lowrank call, computed from
    the argument shapes: the arithmetic of the capacitance-matrix method
    (x'x, row Gram, projections, Cholesky, solve, log-det, quadratic form)
    and the float64 bytes of the arguments as passed plus the result."""
    x, rows, tap_factor = np.asarray(x), np.asarray(rows), np.asarray(tap_factor)
    xs, rs, gs = x.shape, rows.shape, tap_factor.shape
    size = max(xs[0] if len(xs) == 3 else 1, rs[0] if len(rs) == 3 else 1)
    m, n = xs[-2:]
    j, r = rs[-2], gs[1]
    k = j * r
    per_instance = (2 * m * n + 2 * j * j * n + k * k + 2 * r * m * n + 2 * j * r * n
                    + k ** 3 // 3 + k * k + k + 2 * k)
    nbytes = 8 * (x.size + rows.size + tap_factor.size + size)
    return size, size * per_instance, nbytes


class Tracer:
    """Calls, inclusive and self seconds per span name, and row timestamps:
    (name, wall start, wall end, CPU start, CPU end)."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.rows: list[tuple[str, float, float, float, float]] = []
        self._child_time = [0.0]    # time covered by child spans, per open span

    def wrap(self, owner, attr: str, name: str, row: bool = False) -> None:
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        entry = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if name == "gaussian.log_gauss_lowrank":
            entry.update(instances=0, flops=0, bytes=0)
        stack = self._child_time

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            cpu_start = time.process_time() if row else 0.0
            start = time.monotonic()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.monotonic()
                children = stack.pop()
                entry["calls"] += 1
                entry["s"] += end - start
                entry["self_s"] += end - start - children
                stack[-1] += end - start
                if row:
                    self.rows.append((name, start, end, cpu_start, time.process_time()))
                if "flops" in entry:
                    work = kernel_work(*args, **kwargs)
                    entry["instances"] += work[0]
                    entry["flops"] += work[1]
                    entry["bytes"] += work[2]

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)


def main(argv: list[str]) -> int:
    mode, config_path, out_path, report_path = argv
    tracer = Tracer()
    for owner, attr, name in ROW_SITES:
        tracer.wrap(owner, attr, name, row=True)
    if mode == "trace":
        for owner, attr, name in LAYER_SITES:
            tracer.wrap(owner, attr, name)
    code = cli.main(["run", "--config", config_path, "--out", out_path])
    report = {
        "exit": code,
        "rows": tracer.rows,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stats": tracer.stats,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
