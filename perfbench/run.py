"""Benchmark of `uwbbounds run`: end-to-end times untraced, layers traced.

    python3 perfbench/run.py --workload paper-point|desk-sweep|genie-sweep
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. Writes the workload's config with the seed
folded into it, runs one untimed warm-up invocation, then repeats the
invocation in fresh child processes for S seconds (at least MIN_REPEATS
times) and reports medians. Times are the children's CPU seconds, which
leave out time the hypervisor steals. The calibration kernel (calibrate.py)
is timed a few times before and after every timed invocation, and the
invocation's times are scaled by REFERENCE_S / (median of those kernel
times), so the host's drifting speed cancels. With --trace 1 it then runs
one traced invocation and reports per-layer metrics instead. Every CSV row
of every invocation goes through the correctness gate (gate.py). The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

Every child runs single-threaded: UWBBOUNDS_THREADS, OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS are 1, and so are they in this process, which runs the
calibration kernel. See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("UWBBOUNDS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
if __name__ == "__main__":
    # the calibration kernel runs single-threaded like the children; BLAS
    # reads these when numpy loads
    os.environ.update({name: "1" for name in THREAD_VARS})

import calibrate  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).with_name("child.py")
WORK = ROOT / ".perfbench_work"
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150
CI_TARGET = 1e-3          # bits/symbol, for the fixed-target lower/upper_tts_s
CI_FLOOR = 1e-6           # CIs below this count as this in tts_s

END_TO_END = {"setup_s": "s", "run_cpu_s": "s", "tts_s": "s", "peak_rss_mb": "MB"}
# printed by name beside END_TO_END; absent where a workload has no such row
ROW_METRICS = {"lower_point_s": "s", "upper_point_s": "s",
               "lower_tts_s": "s", "upper_tts_s": "s"}
# metrics in seconds, scaled to reference seconds by the calibration kernel
SCALED = ("setup_s", "run_cpu_s", "tts_s", *ROW_METRICS)
LAYER_TIMES = ("mc.substream", "model.sample_symbols", "model.sample_channel",
               "model.tap_covariance", "gaussian.log_gauss_lowrank")


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({name: "1" for name in THREAD_VARS})
    return env


def invoke(mode: str, config_path: Path, workdir: Path, index: int) -> dict:
    """Run one child. Wall time is measured here, from spawn to exit, and so
    is its CPU time (user + system), from the rusage of reaped children."""
    out = workdir / f"{mode}{index}.csv"
    report = workdir / f"{mode}{index}.json"
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, str(config_path), str(out), str(report)],
            env=child_env(), cwd=workdir, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        error = proc.stderr.strip().splitlines()[-1:] if proc.returncode else []
    except subprocess.TimeoutExpired:
        error = [f"timed out after {CHILD_TIMEOUT_S} s"]
    wall = time.monotonic() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
    return {"start": start, "wall": wall, "cpu": cpu, "error": error,
            "csv": out.read_text() if out.is_file() else None,
            "report": json.loads(report.read_text()) if report.is_file() else None}


def timings(res: dict, reference: list[list], scale: float) -> dict[str, float] | None:
    """End-to-end metrics of one invocation, None if it produced no report.
    Times are the child's CPU seconds multiplied by `scale`, the
    invocation's calibration factor; run_wall_s is the unscaled wall time."""
    rep, rows = res["report"], gate.parse_csv(res["csv"])
    if rep is None or not rep["rows"] or rows is None:
        return None
    cpus = [cpu_end - cpu_begin for *_, cpu_begin, cpu_end in rep["rows"]]
    out = {
        "setup_s": rep["rows"][0][3],   # the child's CPU time up to the first row
        "run_cpu_s": res["cpu"],
        # time to reach, on every row, the CI this input had at the reference
        # commit, assuming CI ~ 1/sqrt(samples)
        "tts_s": sum(w * (max(r["ci"], CI_FLOOR) / max(ref[6], CI_FLOOR)) ** 2
                     for w, r, ref in zip(cpus, rows, reference)),
        "peak_rss_mb": rep["maxrss_kb"] / 1024.0,
    }
    for kind in ("lower", "upper"):
        picked = [(w, r["ci"]) for w, r in zip(cpus, rows) if r["key"][4] == kind]
        if picked:
            out[f"{kind}_point_s"] = statistics.median(w for w, _ in picked)
            out[f"{kind}_tts_s"] = statistics.median(
                w * (ci / CI_TARGET) ** 2 for w, ci in picked)
    scaled = {name: value * scale if name in SCALED else value for name, value in out.items()}
    return {**scaled, "run_wall_s": res["wall"], "scale": scale}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment() -> str:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{name}={child_env()[name]}" for name in THREAD_VARS)
    return (f"cpus={os.cpu_count()} usable={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} "
            f"numpy={importlib.metadata.version('numpy')} "
            f"scipy={importlib.metadata.version('scipy')} "
            f"blas={blas['name']} {blas.get('version', '?')} {threads}")


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def layer_metrics(traced: dict, scale: float, untraced_cpu: float, first_csv: str) -> dict:
    """Per-layer metrics of the traced invocation; seconds are multiplied by
    its calibration factor `scale`, like the end-to-end times."""
    stats = traced["report"]["stats"] if traced["report"] else {}

    def get(name: str, field: str) -> float:
        value = stats.get(name, {}).get(field, 0)
        return value * scale if field in ("s", "self_s") else value
    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
        metrics[f"{name}.s"] = (get(name, "s"), "s")
    kernel = "gaussian.log_gauss_lowrank"
    metrics[f"{kernel}.instances"] = (get(kernel, "instances"), "count")
    metrics[f"{kernel}.flops"] = (get(kernel, "flops"), "flop")
    metrics[f"{kernel}.bytes"] = (get(kernel, "bytes"), "B")
    metrics["mc.from_log_values.s"] = (get("mc.from_log_values", "s"), "s")
    metrics["mc.normal_qq_corr.s"] = (get("mc.normal_qq_corr", "s"), "s")
    for name in ("bounds.lower_bound", "bounds.upper_bound"):
        metrics[f"{name}.s"] = (get(name, "s"), "s")
        metrics[f"{name}.self_s"] = (get(name, "self_s"), "s")
    metrics["bounds.samples_used"] = (
        sum(row["samples"] for row in gate.parse_csv(traced["csv"]) or []), "count")
    metrics["bounds.crossings"] = (gate.crossings(first_csv), "count")
    metrics["config.load_config.s"] = (get("config.load_config", "s"), "s")
    metrics["cli.run_sweep.self_s"] = (get("cli.run_sweep", "self_s"), "s")
    metrics["src.lines"] = (src_lines(), "lines")
    metrics["trace.overhead_s"] = (traced["cpu"] * scale - untraced_cpu, "s")
    return metrics


def self_test(traced: dict, config: dict, metrics: dict) -> list[str]:
    """Traced counts against the closed forms of workloads.expected_counts."""
    stats = traced["report"]["stats"] if traced["report"] else {}
    lines = []
    for name, want in workloads.expected_counts(config).items():
        if name in metrics:
            got = metrics[name][0]
        else:
            site, field = name.rsplit(".", 1)
            got = stats.get(site, {}).get(field, 0)
        verdict = "ok" if got == want else "DIFFERS"
        lines.append(f"  {name:40s} traced {got:>9} closed form {want:>9}  {verdict}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "uwbbounds" / "cli.py").is_file():
        print(f"perfbench: no uwbbounds sources under {SRC}", file=sys.stderr)
        return 2

    config = workloads.make_config(args.workload, args.seed)
    reference = gate.load_reference(args.workload, config["seed"])
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n")
        attempted, failures, first_csv = 0, [], None

        def run_checked(mode: str, index: int) -> dict:
            nonlocal attempted, first_csv
            res = invoke(mode, config_path, workdir, index)
            n, why = gate.check_csv(res["csv"], reference, first_csv)
            attempted += n
            failures.extend(f"{mode} #{index}: {w}" for w in why)
            for line in res["error"]:
                print(f"perfbench: {mode} #{index} exited with: {line}", file=sys.stderr)
            if first_csv is None:
                first_csv = res["csv"]
            return res

        calibrate.kernel()                # warm-up: file cache, bytecode
        run_checked("plain", 0)
        before = calibrate.sample()
        kernel_s = list(before)
        begin = time.monotonic()
        timed, tries = [], 0
        while (time.monotonic() - begin < args.seconds
               or (len(timed) < MIN_REPEATS and tries < 2 * MIN_REPEATS)):
            tries += 1
            res = run_checked("plain", tries)
            after = calibrate.sample()
            kernel_s += after
            scale = calibrate.REFERENCE_S / statistics.median(before + after)
            if (t := timings(res, reference, scale)) is not None:
                timed.append(t)
            before = after
        if args.trace:
            traced = run_checked("trace", 0)
            trace_scale = calibrate.REFERENCE_S / statistics.median(before + calibrate.sample())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass                        # another run still uses it
    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if not timed or first_csv is None:
        print("perfbench: no invocation completed", file=sys.stderr)
        return 1

    print(f"env: {environment()} src.lines={src_lines()}")
    print(f"workload {args.workload}, seed {args.seed} (config seed {config['seed']}): "
          f"{len(timed)} timed invocations after 1 warm-up")
    shown = {**END_TO_END, **ROW_METRICS, "run_wall_s": "s", "scale": "1"}
    series = {name: [t[name] for t in timed if name in t] for name in shown}
    k1, kmed, k3 = quartiles(kernel_s)
    print(f"calibration kernel: median {kmed:.6g} s  q1 {k1:.6g}  q3 {k3:.6g}  "
          f"n={len(kernel_s)}  (reference {calibrate.REFERENCE_S} s); times are "
          f"CPU seconds scaled by `scale`, run_wall_s is unscaled wall time")
    for name, unit in shown.items():
        if series[name]:
            q1, med, q3 = quartiles(series[name])
            print(f"  {name:14s} {unit:3s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"n={len(series[name])}")
    print(f"gate: {attempted} rows checked, {len(failures)} failed, "
          f"{gate.crossings(first_csv)} C_l > C_u crossing(s) reported")

    if args.trace:
        untraced = statistics.median(series["run_cpu_s"])
        layers = layer_metrics(traced, trace_scale, untraced, first_csv)
        print("traced run:")
        for name, (value, unit) in layers.items():
            print(f"  {name:40s} {value:.6g} {unit}")
        print("trace self-test (closed forms hold for the call structure at the "
              "commit that defined this benchmark):")
        print("\n".join(self_test(traced, config, layers)))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": statistics.median(series[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
