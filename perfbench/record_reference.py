"""Record reference.json: the rows every benchmark input gives at this commit.

    python3 perfbench/record_reference.py

Runs each workload once for every config seed (0 .. CONFIG_SEEDS - 1) and
stores [l_m, d_m, eta1, eta2, bound, rate, ci_halfwidth] per CSV row. The
correctness gate compares later commits against these rows, so re-record
only when a workload's config changes, never to make a result pass.
"""

from __future__ import annotations

import json
import shutil

import gate
import run
import workloads


def main() -> None:
    out = {}
    workdir = run.WORK / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            out[name] = {}
            for seed in range(workloads.CONFIG_SEEDS):
                config_path = workdir / "config.json"
                config_path.write_text(json.dumps(workloads.make_config(name, seed)))
                res = run.invoke("plain", config_path, workdir, seed)
                rows = gate.parse_csv(res["csv"])
                if rows is None:
                    raise SystemExit(f"{name} seed {seed} failed: {res['error']}")
                out[name][str(seed)] = [r["key"] + [r["rate"], r["ci"]] for r in rows]
                print(f"{name} seed {seed}: {len(rows)} rows in {res['wall']:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gate.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
