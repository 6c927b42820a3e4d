"""Self-test of the benchmark in its short mode.

    python3 perfbench/selftest.py

Checks the benchmark, not the program's speed; it asserts no timing.

- BENCHMARK.json keeps to its schema;
- every workload of catalog.json, untraced and traced, on tiny inputs
  (``--quick``), exits 0
  and ends with the result line, whose metrics are exactly those of
  BENCHMARK.json for the mode, with their units;
- the full report names every gated metric, every catalog metric of the
  workload, and every per-layer metric, with a unit and a sample count;
- the exact counts of a traced run repeat in a second run of the same seed;
- in a directory holding only BENCHMARK.json and the benchmark's files, the
  command fails without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
EXACT_UNITS = {"count", "flop", "B", "ratio"}  # time-derived shares use "s/s"


def check_schema(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) <= 64 * 1024


def run(workload: str, trace: int, report: Path, cwd: Path = ROOT) -> tuple[int, list]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--quick", "--report", str(report)]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_workload(spec: dict, catalog: dict, workload: str, tmp: Path) -> None:
    for trace in (0, 1):
        report_path = tmp / f"{workload}-{trace}.json"
        code, lines = run(workload, trace, report_path)
        assert code == 0, f"{workload} trace={trace}: exit {code}"
        line = json.loads(lines[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, line
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            got = line["metrics"][m["name"]]
            assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], (m, got)
            assert isinstance(got["value"], (int, float))

        report = json.loads(report_path.read_text())
        named = [m["name"] for m in spec["end_to_end"]]
        named += [k for k, v in catalog["workload_metrics"].items() if workload in v["workloads"]]
        for key in named:
            m = report["metrics"].get(key)
            assert m is not None, f"{workload}: {key} missing"
            assert m["unit"] and m["n"] >= 1, (workload, key, m)
        if trace:
            layer_units = {k: v["unit"] for k, v in catalog["printed_per_layer"].items()}
            layer_units.update((m["name"], m["unit"]) for m in spec["per_layer"])
            for key, unit in layer_units.items():
                got = report["per_layer"][key]
                assert got["unit"] == unit and got["n"] >= 2, (workload, key, got)
            # exact counts repeat in a second run of the same seed
            again = tmp / f"{workload}-again.json"
            code, _ = run(workload, 1, again)
            assert code == 0
            second = json.loads(again.read_text())["per_layer"]
            for m in spec["per_layer"]:
                if m["unit"] in EXACT_UNITS:
                    assert report["per_layer"][m["name"]]["value"] == second[m["name"]]["value"], \
                        (workload, m["name"])


def check_bare_directory(spec: dict, tmp: Path) -> None:
    """Without the program's sources the command must fail and print no result."""
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(spec["workloads"][0]["name"], 0, tmp / "bare.json", cwd=bare)
    assert code != 0 and not any(text.startswith("{") for text in lines), (code, lines)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((HERE / "catalog.json").read_text())
    check_schema(spec)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        check_bare_directory(spec, Path(tmp))
        # every workload run.py offers, gated in BENCHMARK.json or not
        for name in catalog["workloads"]:
            check_workload(spec, catalog, name, Path(tmp))
            print(f"ok {name}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
