#!/usr/bin/env python3
"""Quick self-test of the benchmark (a few minutes).

Run from the root of a checkout: ``python3 perfbench/selftest.py``

Runs every workload of ``BENCHMARK.json`` briefly, untraced and traced, with
the seed whose output digests are recorded. It checks that each run exits 0
and reports correct outputs with an error rate of 0, and that every metric
``BENCHMARK.json`` names is emitted with its unit. Last, it checks that the
benchmark refuses to run, without printing a result, in a copy that holds
only ``BENCHMARK.json`` and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc = run(ROOT, "--workload", workload, "--seed", "0",
                       "--seconds", SECONDS, "--trace", trace)
            result = last_json(proc.stdout)
            if proc.returncode != 0 or result is None:
                problems.append(f"{label}: exit {proc.returncode}, {proc.stderr[-300:]}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"error_rate={result['failed']}/{result['attempted']}")
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} missing or unit {got}")
                elif not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: {metric['name']} value {got.get('value')!r}")
            extra = set(result["metrics"]) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"ok   {label}: {result['attempted']} requests", flush=True)

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "0",
                   "--seconds", SECONDS, "--trace", "0")
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            problems.append("without src/ the benchmark did not fail, or printed a result")
        else:
            print(f"ok   without src/: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:  # a benchmark run still uses it
            pass

    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
