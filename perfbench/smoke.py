"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes with tracing off and on, through the
same code paths and output checks as a full run.  Each run must exit 0
with a correct result whose metrics are exactly those ``BENCHMARK.json``
names for that mode, each with its unit.  Also checks that
``BENCHMARK.json`` matches ``spec.py`` and that the benchmark exits
non-zero, printing no result, where the package sources are missing.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spec import BENCHMARK_JSON, WORKLOADS, render  # noqa: E402

RUN = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1"]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=600)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def main() -> int:
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    check(spec == render(), "BENCHMARK.json differs from perfbench/spec.py; run python3 perfbench/spec.py")
    for workload in WORKLOADS:
        for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            out = bench(ROOT, "--workload", workload, "--trace", trace, "--tiny")
            label = f"{workload} --trace {trace}"
            check(out.returncode == 0, f"{label} exited {out.returncode}: {out.stderr[-2000:]}")
            result = json.loads(out.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: {out.stdout[-3000:]}")
            printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in metrics}
            check(printed == expected, f"{label}: metrics or units differ from BENCHMARK.json")
            lines = {line.split(" = ")[0]: line for line in out.stdout.splitlines() if " = " in line}
            for name, unit in expected.items():
                check(f" {unit}" in lines.get(name, ""), f"{label}: no line '{name} = <value> {unit}'")
            print(f"smoke: ok {label} ({result['attempted']} runs)")

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        bare = Path(tmp)
        shutil.copy(BENCHMARK_JSON, bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = bench(bare, "--workload", "paper-online", "--trace", "0")
        check(out.returncode != 0 and not out.stdout.strip(), "runs without the package sources")
    print("smoke: ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
