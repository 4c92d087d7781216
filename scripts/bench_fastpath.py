"""Before/after timing of ``decode`` at beta 0 and 1, the table build and marginal scoring.

Run from the root of a checkout:

    python3 scripts/bench_fastpath.py --parent REV --out BENCH_marginal.json

``REV``'s ``src/`` is exported with ``git archive`` into a temporary
directory. Each round runs the parent and this checkout's ``src/`` in fresh
interpreters, one after the other, alternating which goes first. Each run
reports, on the instances ``lib-decode`` uses at seed 0 (generator seeds
0-7, every 4th at sparsity 0.3):

- per-call ``decode`` time, median and p90, per strategy and beta;
- median ``build_viterbi_table`` time per mode on one generated instance
  (seed 0, V=32) at each L of ``TABLE_LENGTHS``;
- longest-path passes and table builds per call, counted in a separate
  untimed sweep. Passes are what ``decoders._longest_path_search`` reports
  where it exists, with the reason of each fallback to the table; at a
  parent without it they are counted by wrapping ``decoders._longest_path``
  (absent at a parent without either), and the reasons are null. Builds
  are counted by wrapping ``decoders.build_viterbi_table``;
- on the instances ``analyze`` uses at seed 0 (16 at L=64, V=16, generator
  seeds 2000-2015, every 4th at sparsity 0.3), with the four strategies'
  hypotheses at beta 1: the median time of the 64
  ``marginal_translation_log_prob`` calls, one per hypothesis, and of one
  whole ``compare_strategies(..., "marginal", beta=1.0)`` call; the forward
  passes that call runs (counted by wrapping the public function) and the
  ``repr`` of its per-strategy averages;
- acceptance criterion 7's ratio, measured as that test measures it
  (medians of single decodes), and as the mean-based ``benchmark`` call
  it used before, both in the same run;
- whether the compiled pass (``dagdecode._cpass``) was in use
  (null at a parent without it).

The compiled kernels are built, or found in their cache, during the
warm-up, so no timed call pays for the compiler.

Runs are sequential and single-threaded; every input is generated in the
child from its seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STRATEGIES = ("viterbi", "joint-viterbi")
BETAS = (0.0, 1.0)
TABLE_LENGTHS = (64, 256, 512)
ANALYZE_STRATEGIES = ("greedy", "lookahead", "viterbi", "joint-viterbi")
#: Timed repetitions per ``--reps`` of the analyze calls, which are short.
ANALYZE_REPS_PER_REP = 4
#: Timed rounds over the three criterion 7 instances, as in the test.
CRITERION7_REPS = 15


def measure(src: str, reps: int) -> dict:
    """One side's numbers, measured in this (fresh) interpreter."""
    sys.path.insert(0, src)
    import dagdecode
    from dagdecode import GeneratorConfig, decoders, generate_instance

    instances = [
        generate_instance(
            GeneratorConfig(L=256, V=32, seed=k, sparsity=0.3 if k % 4 == 0 else 0.0)
        )
        for k in range(8)
    ]
    for strategy in STRATEGIES:  # warm-up: imports, first calls, the compiled pass
        decoders.decode(instances[0], strategy, 1.0)
    try:
        from dagdecode import _cpass
    except ImportError:
        compiled_pass = None
    else:
        compiled_pass = _cpass.load() is not None

    times = {}
    for beta in BETAS:
        for strategy in STRATEGIES:
            samples = []
            for _ in range(reps):
                for inst in instances:
                    start = time.perf_counter()
                    decoders.decode(inst, strategy, beta)
                    samples.append(time.perf_counter() - start)
            samples.sort()
            times[f"{strategy} beta={beta:g}"] = {
                "median_ms": statistics.median(samples) * 1e3,
                "p90_ms": samples[int(0.9 * (len(samples) - 1))] * 1e3,
                "calls": len(samples),
            }

    table_ms = {}
    for L in TABLE_LENGTHS:
        inst = generate_instance(GeneratorConfig(L=L, V=32, seed=0))
        for mode in decoders.TableMode:
            decoders.build_viterbi_table(inst, mode)  # warm-up
            samples = []
            for _ in range(reps):
                start = time.perf_counter()
                decoders.build_viterbi_table(inst, mode)
                samples.append(time.perf_counter() - start)
            table_ms[f"{mode.value} L={L}"] = statistics.median(samples) * 1e3

    analyze = measure_analyze(dagdecode, reps * ANALYZE_REPS_PER_REP)

    counts = {"passes": 0, "builds": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    search = getattr(decoders, "_longest_path_search", None)
    has_passes = search is not None or hasattr(decoders, "_longest_path")
    if search is None and has_passes:
        decoders._longest_path = counted("passes", decoders._longest_path)
    decoders.build_viterbi_table = counted("builds", decoders.build_viterbi_table)
    work = {}
    for beta in BETAS:
        for strategy in STRATEGIES:
            counts.update(passes=0, builds=0)
            reasons = None if search is None else {r.name: 0 for r in decoders.Fallback}
            for inst in instances:
                if search is not None:
                    _, reason, passes = search(inst, decoders.TABLE_MODES[strategy], beta)
                    counts["passes"] += passes
                    if reason is not None:
                        reasons[decoders.Fallback(reason).name] += 1
                decoders.decode(inst, strategy, beta)
            work[f"{strategy} beta={beta:g}"] = {
                "passes_per_call": counts["passes"] / len(instances) if has_passes else None,
                "table_builds_per_call": counts["builds"] / len(instances),
                "fallbacks_by_reason_per_call": None if reasons is None else {
                    name: n / len(instances) for name, n in reasons.items()
                },
            }

    criterion7 = [
        generate_instance(GeneratorConfig(L=256, V=32, seed=99000 + k)) for k in range(3)
    ]
    pair = ("greedy", "joint-viterbi")
    for inst in criterion7:  # warm-up, as in the test
        for strategy in pair:
            decoders.decode(inst, strategy, 1.0)
    samples = {strategy: [] for strategy in pair}
    for _ in range(CRITERION7_REPS):
        for inst in criterion7:
            for strategy in pair:
                start = time.perf_counter()
                decoders.decode(inst, strategy, 1.0)
                samples[strategy].append(time.perf_counter() - start)
    greedy, joint = (statistics.median(samples[strategy]) for strategy in pair)
    timings = dagdecode.benchmark(criterion7, list(pair), repetitions=3, beta=1.0)
    return {
        "compiled_pass": compiled_pass,
        "decode": times,
        "table_build_ms": table_ms,
        "work": work,
        "analyze": analyze,
        "criterion7_ratio": joint / greedy,
        "criterion7_greedy_us": greedy * 1e6,
        "criterion7_joint_viterbi_ms": joint * 1e3,
        "criterion7_ratio_of_means": timings["joint-viterbi"].ratio_vs_baseline,
    }


def measure_analyze(dagdecode, reps: int) -> dict:
    """Marginal scoring on ``analyze``'s seed-0 instances, as perfbench generates them."""
    from dagdecode import GeneratorConfig, generate_instance, scoring

    instances = [
        generate_instance(
            GeneratorConfig(L=64, V=16, seed=2000 + k, sparsity=0.3 if k % 4 == 3 else 0.0)
        )
        for k in range(16)
    ]
    pairs = [
        (inst, dagdecode.decode(inst, strategy, 1.0).tokens)
        for inst in instances
        for strategy in ANALYZE_STRATEGIES
    ]

    def score_each():
        for inst, tokens in pairs:
            scoring.marginal_translation_log_prob(inst, tokens)

    def compare():
        return dagdecode.compare_strategies(instances, ANALYZE_STRATEGIES, "marginal", beta=1.0)

    timed = {}
    for name, call in (("marginal_calls_ms", score_each), ("compare_strategies_ms", compare)):
        call()  # warm-up
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
        timed[name] = statistics.median(samples) * 1e3

    passes = 0
    marginal = scoring.marginal_translation_log_prob

    def counted(instance, tokens):
        nonlocal passes
        passes += 1
        return marginal(instance, tokens)

    scoring.marginal_translation_log_prob = counted
    try:
        report = compare()
    finally:
        scoring.marginal_translation_log_prob = marginal
    return {
        **timed,
        "marginal_calls": len(pairs),
        "forward_passes_per_compare": passes,
        "avg_logprob_repr": {k: repr(v) for k, v in report.per_strategy_avg_logprob.items()},
    }


def run_side(src: Path, reps: int) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--measure", str(src), "--reps", str(reps)],
        check=True, capture_output=True, text=True, cwd=ROOT,
    )
    return json.loads(out.stdout)


def summarize(runs: list[dict]) -> dict:
    """Medians over rounds of each per-run number; the work counts repeat exactly."""

    def med(values):
        return round(statistics.median(values), 4)

    keys = runs[0]["decode"]
    return {
        "compiled_pass": [r["compiled_pass"] for r in runs],
        "decode_ms": {
            k: {
                "median": med([r["decode"][k]["median_ms"] for r in runs]),
                "p90": med([r["decode"][k]["p90_ms"] for r in runs]),
            }
            for k in keys
        },
        "table_build_ms": {
            k: med([r["table_build_ms"][k] for r in runs]) for k in runs[0]["table_build_ms"]
        },
        "work_per_call": runs[0]["work"],
        "fallbacks_per_call": {
            k: w["table_builds_per_call"] if w["passes_per_call"] is not None else None
            for k, w in runs[0]["work"].items()
        },
        "analyze": {
            "marginal_calls_ms": med([r["analyze"]["marginal_calls_ms"] for r in runs]),
            "compare_strategies_ms": med([r["analyze"]["compare_strategies_ms"] for r in runs]),
            "compare_strategies_ms_per_round": [
                round(r["analyze"]["compare_strategies_ms"], 2) for r in runs
            ],
            **{
                k: runs[0]["analyze"][k]
                for k in ("marginal_calls", "forward_passes_per_compare", "avg_logprob_repr")
            },
        },
        "criterion7_ratio": {
            "median": med([r["criterion7_ratio"] for r in runs]),
            "per_round": [round(r["criterion7_ratio"], 2) for r in runs],
        },
        "criterion7_greedy_us": med([r["criterion7_greedy_us"] for r in runs]),
        "criterion7_joint_viterbi_ms": med([r["criterion7_joint_viterbi_ms"] for r in runs]),
        "criterion7_ratio_of_means": {
            "median": med([r["criterion7_ratio_of_means"] for r in runs]),
            "per_round": [round(r["criterion7_ratio_of_means"], 2) for r in runs],
        },
    }


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        lines = cpuinfo.read_text().splitlines()
        models = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
        if models:
            cpu = models[0]
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision to compare against")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--reps", type=int, default=5, help="sweeps over the 8 instances per run")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.reps)))
        return 0
    if not args.parent:
        parser.error("--parent is required")
    rev = subprocess.run(
        ["git", "rev-parse", "--short", args.parent],
        check=True, capture_output=True, text=True, cwd=ROOT,
    ).stdout.strip()
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "archive", rev, "src"], check=True, capture_output=True, cwd=ROOT
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_side(sides[side], args.reps))
    command = ["python3", "scripts/bench_fastpath.py", "--parent", args.parent,
               "--rounds", str(args.rounds), "--reps", str(args.reps)]
    if args.out:
        command += ["--out", str(args.out)]
    doc = {
        "command": " ".join(command),
        "parent": rev,
        "machine": machine(),
        "workload": "decode(inst, strategy, beta) on 8 generated L=256 V=32 instances "
        "(seeds 0-7, every 4th at sparsity 0.3); criterion 7 on seeds 99000-99002 at beta 1; "
        f"build_viterbi_table on one V=32 instance (seed 0) at L {TABLE_LENGTHS}; "
        "marginal scoring and compare_strategies on 16 L=64 V=16 instances "
        "(seeds 2000-2015, every 4th at sparsity 0.3), 4 strategies, beta 1",
        "identical_averages": all(
            r["analyze"]["avg_logprob_repr"] == runs["parent"][0]["analyze"]["avg_logprob_repr"]
            for r in runs["parent"] + runs["change"]
        ),
        "rounds": args.rounds,
        "before": summarize(runs["parent"]),
        "after": summarize(runs["change"]),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
