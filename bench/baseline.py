"""Run every workload over ten seeds, check steadiness, record a baseline.

    python3 bench/baseline.py

For each workload it makes one ``bench/run.py`` run per seed (1-10) and one
traced run, and prints each end-to-end metric's median and quartile spread
(the distance between the first and third quartile as a share of the median)
next to the metric's bound, and how far the median moved from the one in the
previous ``bench/baseline.json``. It then writes everything, with the output
hashes of every run, to ``bench/baseline.json``. It exits 1 when a run is not
correct, a spread exceeds its bound, or a median is worse than the previous
one by more than the bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "baseline.json"
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    better = {m["name"]: m["better"] for m in doc["end_to_end"]}
    workloads = [w["name"] for w in doc["workloads"]]
    previous = json.loads(OUT.read_text()) if OUT.exists() else {}

    baseline, ok = {}, True
    for name in workloads:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        runs = []
        for seed in SEEDS:
            report, result = run(name, seed, doc["run_seconds"], 0)
            ok &= result["correct"]
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            runs.append({"seed": seed, "correct": result["correct"],
                         "stage_s": report.get("stage_s"), "sha256": report.get("sha256"),
                         "metrics": {m: v["value"] for m, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"total_s={result['metrics']['total_s']['value']:.3f}", flush=True)
        report, traced = run(name, SEEDS[0], doc["run_seconds"], 1)
        ok &= traced["correct"]
        summary = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[metric] = {"median": median, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bounds[metric]}
            old = previous.get(name, {}).get("end_to_end", {}).get(metric, {}).get("median")
            drift = worse_by(old, median, better[metric]) if old else 0.0
            steady = spread <= bounds[metric] and drift <= bounds[metric]
            ok &= steady
            print(f"  {metric:22s} median={median:.6g} spread={spread:.4f} "
                  f"worse_than_previous={drift:+.4f} bound={bounds[metric]} "
                  f"{'ok' if steady else 'OUT OF BOUND'}", flush=True)
        baseline[name] = {
            "end_to_end": summary,
            "runs": runs,
            "traced": {"seed": SEEDS[0], "correct": traced["correct"],
                       "metrics": {m: v["value"] for m, v in traced["metrics"].items()},
                       "layer_share": report["layer_share"]},
            "sizes": report["sizes"],
            "environment": report["environment"],
        }
    OUT.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
