"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload it checks that the untraced and the traced run end in
one JSON line with exactly ``correct``, ``attempted``, ``failed`` and
``metrics``, with every metric ``BENCHMARK.json`` names and its unit,
and that the outputs pass their checks; that an
endpoint shifted on purpose is counted in ``wrong_outputs``; that every
per-layer metric is measured by some workload; and that the benchmark
fails, printing no result, in a directory without the fabcp sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("loo_j50", "loo_j150_cli", "mc_sweep", "predict")
# Zero unless a fit falls back, which the tiny inputs need not provoke.
MAY_READ_ZERO = {"small_area.fallbacks"}


def bench(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    measured: set[str] = set()

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, final = result_lines(bench(ROOT, workload, trace))
            where = f"{workload} --trace {trace}"
            if set(final) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(final)}")
            if final["correct"] is not True or final["failed"] != 0 or final["attempted"] < 1:
                problems.append(f"{where}: correct={final['correct']} "
                                f"attempted={final['attempted']} failed={final['failed']}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in final["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected.items()))}")
            for name, m in final["metrics"].items():
                value = m["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{where}: end-to-end {name} reads {value}")
                elif value != 0:
                    measured.add(name)

        details, final = result_lines(bench(ROOT, workload, 0, "--inject-wrong"))
        if final["correct"] or details["wrong_outputs"]["value"] < 1:
            problems.append(f"{workload}: a shifted endpoint was not counted as wrong")

    unmeasured = {m["name"] for m in spec["per_layer"]} - measured - MAY_READ_ZERO
    if unmeasured:
        problems.append(f"per-layer metrics no workload measured: {sorted(unmeasured)}")

    bare = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, WORKLOADS[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the fabcp sources the benchmark still printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
