"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seconds S] [--out FILE]

Runs the benchmark command of BENCHMARK.json once per seed (seeds 1-10) for
each workload, one process at a time.
For every metric a run prints it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  Gated metrics are shown
next to their bound, and a spread above a third of the bound is flagged
(``setup_s`` excepted).  ``--out`` writes the summary, with the environment
of the first run, as JSON; baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run(command, workload: str, seed: int, seconds: int, report: Path) -> dict:
    argv = [sys.executable if command[0] in ("python", "python3") else command[0], *command[1:],
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0", "--report", str(report)]
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    full = json.loads(report.read_text())
    for failure in full["failures"]:
        print(f"{workload} seed {seed}: FAILED {failure}")
    full["wall_s"] = wall
    full["line"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return full


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"runs": len(SEEDS), "seconds": args.seconds, "seeds": [SEEDS[0], SEEDS[-1]],
               "env": None, "workloads": {}}
    ok = True
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        for workload in args.workloads.split(","):
            reports = [run(spec["command"], workload, seed, args.seconds, Path(tmp) / "r.json")
                       for seed in SEEDS]
            summary["env"] = summary["env"] or reports[0]["env"]
            walls = [r["wall_s"] for r in reports]
            correct = sum(r["correct"] for r in reports)
            ok &= correct == len(reports)
            print(f"{workload}: {correct}/{len(reports)} correct, "
                  f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
            stats = {"correct_runs": correct, "wall_s": summarize(walls), "metrics": {}}
            for key, first in reports[0]["metrics"].items():
                s = summarize([r["metrics"][key]["value"] for r in reports])
                s["unit"] = first["unit"]
                stats["metrics"][key] = s
                flag = ""
                if key in bounds:
                    s["bound"] = bounds[key]
                    if key != "setup_s" and s["spread"] > bounds[key] / 3:
                        flag = "  <-- above a third of the bound"
                        ok = False
                    flag = f" (bound {bounds[key]}){flag}"
                print(f"  {key:<26} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                      f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f}{flag}")
            summary["workloads"][workload] = stats
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
