"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/record.py --seeds 1-10
    python3 bench/record.py --seeds 1-10 --trace-seed 1 --append "label"

Every run uses the workloads and run_seconds of BENCHMARK.json, so every
point of the trajectory is measured alike.  For every workload and
end-to-end metric prints the median of the runs,
the quartiles (statistics.quantiles(values, n=4)) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  --trace-seed adds one traced run per
workload; --append adds the whole record, with the machine and every run,
as a new point of bench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], float]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1], elapsed


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--append", metavar="LABEL", help="add the record to bench/trajectory.json")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"label": args.append, "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
              "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in _seeds(args.seeds):
            result, lines, elapsed = run_once(workload, seed, spec["run_seconds"], 0)
            record.setdefault("machine", json.loads(lines[0].split(" machine ", 1)[1]))
            runs.append({"seed": seed, "elapsed_s": elapsed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        entry = {"runs": runs, "metrics": {}}
        for name in runs[0]["metrics"]:
            s = spread([r["metrics"][name] for r in runs])
            entry["metrics"][name] = {k: v for k, v in s.items() if k != "values"}
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}\n"
                  f"  {'':16s} " + " ".join(f"{v:.4g}" for v in s["values"]), flush=True)
        if args.trace_seed is not None:
            result, lines, _ = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["traced"] = {"seed": args.trace_seed,
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        record["workloads"][workload] = entry

    if args.append:
        path = BENCH / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append(record)
        path.write_text(json.dumps(points, indent=1) + "\n", encoding="utf-8")
        print(f"appended to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
