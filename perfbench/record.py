"""Run every workload on several seeds and write one trajectory entry.

    python3 perfbench/record.py --seeds 1-10 --seconds 45 --out perfbench/BENCH_0.json

For each workload: one untraced run per seed (one process at a time), then
one traced run on the first seed and one untraced run on the held-out seed.
The entry holds, per end-to-end metric, the median, the quartiles and the
spread (quartile distance over median, as `statistics.quantiles(n=4)` gives
them); the per-layer metrics of the traced run; and the trace sha256 of every
seed run, so a later change can show that its decisions did not change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from run import HELD_OUT_SEED, _load_library, run_subprocess


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """One benchmark process; exits with its output when it is not correct."""
    result, stdout = run_subprocess(workload, seed, seconds, trace)
    if result is None or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{stdout}")
    sha = next(ln.split("=", 1)[1] for ln in stdout.splitlines() if ln.startswith("trace_sha256="))
    return result, sha


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    _load_library()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)

    entry = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cores",
        "seconds": args.seconds,
        "seeds": seeds,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {},
    }
    for name in args.workloads.split(","):
        runs, shas = [], {}
        for seed in seeds:
            result, shas[seed] = _run(name, seed, args.seconds, 0)
            runs.append(result["metrics"])
            print(f"{name} seed={seed} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        end_to_end = {}
        for key, first in runs[0].items():
            values = [r[key]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            end_to_end[key] = {
                "unit": first["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "values": values,
            }
        traced, _ = _run(name, seeds[0], args.seconds, 1)
        _, shas[HELD_OUT_SEED] = _run(name, HELD_OUT_SEED, args.seconds, 0)
        entry["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "trace_sha256": {str(k): v for k, v in shas.items()},
        }
        for key, m in end_to_end.items():
            print(f"{name} {key}: median={m['median']:.4g} spread={m['spread']}", flush=True)
    Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
