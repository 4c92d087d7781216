"""Before/after timing of ``decode``, the table build, marginals, the oracle, reading and writing.

Run from the root of a checkout:

    python3 scripts/bench_fastpath.py --parent REV --out bench/BENCH_<topic>.json

``REV`` must be 01b2358 or later, whose ``benchmark`` takes medians; its
``src/`` is exported with ``git archive`` into a temporary directory. Each
round runs the parent and this checkout's ``src/`` in fresh interpreters,
one after the other, alternating which goes first. The inputs are
perfbench's at seed 0, made by ``generated`` in ``perfbench/run.py``. Each
run reports:

- on ``lib-decode``'s 8 instances: per-call ``decode`` time, median and p90,
  per strategy and beta; and, in a separate untimed sweep, the longest-path
  passes per call (what ``decoders._longest_path_search`` reports, with the
  reason of each fallback to the table) and the table builds per call
  (counted by wrapping ``decoders.build_viterbi_table``);
- median ``build_viterbi_table`` time per mode on one generated instance
  (seed 0, V=32) at each L of ``TABLE_LENGTHS``, and that of the numpy
  table (``decoders._numpy_table``) on the same weights; and the sha256 of the
  tables of those instances and ``lib-decode``'s 8, in both modes (``alpha``,
  ``psi``'s dtype and bytes, ``feasible_lengths()``), which must match
  across sides;
- on ``analyze``'s 16 instances, with the four strategies' hypotheses at
  beta 1: the median time of the 64 ``marginal_translation_log_prob``
  calls, one per hypothesis, and of one whole ``compare_strategies(...,
  "marginal", beta=1.0)`` call; the forward passes that call runs (counted
  by wrapping the public function) and the ``repr`` of its averages;
- acceptance criterion 7's ratio and both medians, from the ``benchmark``
  call that test makes;
- on ``oracle-check``'s inputs (offset 3000, V=5) at each L of
  ``ORACLE_LENGTHS``, with that many instances: the median time of one
  ``brute_force_best_path``, one ``brute_force_best_joint`` and one
  ``brute_force_marginal`` call (of the instance's joint-viterbi tokens of
  the feasible length nearest L // 2 + 1, which has the most paths), one
  sweep per run, summarized as the median over rounds with each round's
  value, whose range is the round-to-round spread; ``tracemalloc``'s peak
  over one call of each on the first instance, its subsets already cached;
  and the sha256 of every result (each length's path
  and ``float.hex`` of its probability, the global best and the path count;
  the marginal's ``float.hex``), which must match across sides;
- on ``cli-decode``'s 4 instances: the median time of ``save_instance``
  per file, ``tracemalloc``'s peak over one save of the first, and the
  sha256 of the bytes written, which must match across sides;
- whether the compiled kernels (``dagdecode._cpass``) were in use;
- on ``cli-decode``'s 4 files (written once, by this checkout), each in a
  fresh interpreter per side: the time of one ``parse_instance`` of its
  text, validation included, after the imports (so it loads the compiled
  library, as a CLI run does), ``tracemalloc``'s peak over a second, and
  the sha256 of the parsed tables' bytes, which must match across sides;
  and the wall time of a whole ``dagdecode decode --strategy joint-viterbi``
  subprocess on it, with the sha256 of its stdout, which must match across
  sides.

The compiled kernels are built, or found in their cache, during the
warm-up, so no timed call pays for the compiler. Runs are sequential and
single-threaded. The script writes the record, then exits 1 if any
``identical_*`` field is false. ``bench/README.md`` indexes the committed
records: a new one adds a row there.
"""

from __future__ import annotations

import argparse
import hashlib
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
#: Timed sweeps over lib-decode's 8 instances per run, and timed calls of each table build.
REPS = 5
#: Timed calls of each analyze measurement per run, which are short.
ANALYZE_REPS = 4 * REPS
#: ``generated``'s (offset, count, L, V) for three perfbench workloads.
LIB_DECODE, CLI_DECODE, ANALYZE = (0, 8, 256, 32), (1000, 4, 512, 32), (2000, 16, 64, 16)
#: Instances per L for the oracle on ``oracle-check``'s inputs (its own set is L=13).
ORACLE_LENGTHS = {10: 8, 13: 8, 16: 8, 20: 8}
#: The ``dagdecode`` console script, as ``perfbench`` runs it.
CONSOLE = "import sys; from dagdecode.cli import main; sys.argv[0] = 'dagdecode'; main()"


def perfbench_inputs(dagdecode, workload: tuple) -> list:
    """A perfbench workload's seed-0 instances, made by perfbench's own ``generated``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import generated

    return generated(dagdecode, 0, *workload)


def median_ms(call, reps: int) -> float:
    """Median wall time of ``reps`` calls, after one untimed warm-up call, in ms."""
    call()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def count_calls(module, name: str) -> list:
    """Wrap ``module.name`` for the rest of this run; the list gets an item per call."""
    calls, call = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return call(*args, **kwargs)

    setattr(module, name, counted)
    return calls


def measure(src: str) -> dict:
    """One side's numbers, measured in this (fresh) interpreter."""
    sys.path.insert(0, src)
    import dagdecode
    from dagdecode import GeneratorConfig, _cpass, decoders, generate_instance

    instances = perfbench_inputs(dagdecode, LIB_DECODE)
    for strategy in STRATEGIES:  # warm-up: imports, first calls, the compiled kernels
        decoders.decode(instances[0], strategy, 1.0)
    compiled_pass = _cpass.load() is not None

    times = {}
    for beta in BETAS:
        for strategy in STRATEGIES:
            samples = []
            for _ in range(REPS):
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

    table_ms, numpy_table_ms, tables = {}, {}, []
    for L in TABLE_LENGTHS:
        inst = generate_instance(GeneratorConfig(L=L, V=32, seed=0))
        tables.append(inst)
        for mode in decoders.TableMode:
            table_ms[f"{mode.value} L={L}"] = median_ms(
                lambda: decoders.build_viterbi_table(inst, mode), REPS
            )
            weights = decoders._hop_weights(inst, mode)
            numpy_table_ms[f"{mode.value} L={L}"] = median_ms(
                lambda: decoders._numpy_table(*weights), REPS
            )

    analyze = measure_analyze(dagdecode)
    oracle = measure_oracle(dagdecode)
    write = measure_write(dagdecode)

    builds = count_calls(decoders, "build_viterbi_table")
    work = {}
    for beta in BETAS:
        for strategy in STRATEGIES:
            builds.clear()
            passes = 0
            reasons = {r.name: 0 for r in decoders.Fallback}
            for inst in instances:
                _, reason, count = decoders._longest_path_search(
                    inst, decoders.TABLE_MODES[strategy], beta
                )
                passes += count
                if reason is not None:
                    reasons[decoders.Fallback(reason).name] += 1
                decoders.decode(inst, strategy, beta)
            work[f"{strategy} beta={beta:g}"] = {
                "passes_per_call": passes / len(instances),
                "table_builds_per_call": len(builds) / len(instances),
                "fallbacks_by_reason_per_call": {
                    name: n / len(instances) for name, n in reasons.items()
                },
            }

    criterion7 = [
        generate_instance(GeneratorConfig(L=256, V=32, seed=99000 + k)) for k in range(3)
    ]
    stats = dagdecode.benchmark(criterion7, ["greedy", "joint-viterbi"], repetitions=15, beta=1.0)
    greedy, joint = stats["greedy"], stats["joint-viterbi"]
    return {
        "compiled_pass": compiled_pass,
        "decode": times,
        "table_build_ms": table_ms,
        "numpy_table_ms": numpy_table_ms,
        "tables_sha256": tables_sha256(dagdecode, tables + instances),
        "work": work,
        "analyze": analyze,
        "oracle": oracle,
        "write": write,
        "criterion7_ratio": joint.ratio_vs_baseline,
        "criterion7_greedy_us": greedy.median_seconds * 1e6,
        "criterion7_joint_viterbi_ms": joint.median_seconds * 1e3,
    }


def tables_sha256(dagdecode, instances: list) -> str:
    """The sha256 of each instance's ``build_viterbi_table`` in both modes.

    It covers ``alpha``'s bytes, ``psi``'s dtype and bytes, and ``feasible_lengths()``.
    """
    digest = hashlib.sha256()
    for inst in instances:
        for mode in dagdecode.TableMode:
            table = dagdecode.build_viterbi_table(inst, mode)
            digest.update(table.alpha.tobytes())
            digest.update(table.psi.dtype.str.encode())
            digest.update(table.psi.tobytes())
            digest.update(repr(table.feasible_lengths()).encode())
    return digest.hexdigest()


def measure_analyze(dagdecode) -> dict:
    """Marginal scoring on ``analyze``'s seed-0 instances."""
    from dagdecode import scoring

    instances = perfbench_inputs(dagdecode, ANALYZE)
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

    timed = {
        "marginal_calls_ms": median_ms(score_each, ANALYZE_REPS),
        "compare_strategies_ms": median_ms(compare, ANALYZE_REPS),
    }

    passes = count_calls(scoring, "marginal_translation_log_prob")
    report = compare()
    return {
        **timed,
        "marginal_calls": len(pairs),
        "forward_passes_per_compare": len(passes),
        "avg_logprob_repr": {k: repr(v) for k, v in report.per_strategy_avg_logprob.items()},
    }


def measure_oracle(dagdecode) -> dict:
    """The exhaustive oracle on ``oracle-check``'s inputs at each L of ``ORACLE_LENGTHS``.

    The marginal scores each instance's joint-viterbi tokens of ``middle_tokens``.
    """
    import tracemalloc

    times, peaks, results = {}, {}, []
    for L, count in ORACLE_LENGTHS.items():
        instances = perfbench_inputs(dagdecode, (3000, count, L, 5))
        tokens = [middle_tokens(dagdecode, inst) for inst in instances]
        searches = {
            "path": lambda k: dagdecode.brute_force_best_path(instances[k], cap=L),
            "joint": lambda k: dagdecode.brute_force_best_joint(instances[k], cap=L),
            "marginal": lambda k: dagdecode.brute_force_marginal(instances[k], tokens[k], cap=L),
        }
        for mode, search in searches.items():
            search(0)  # warm-up
            samples = []
            for k in range(count):
                start = time.perf_counter()
                result = search(k)
                samples.append(time.perf_counter() - start)
                results.append(oracle_fields(result))
            times[f"{mode} L={L}"] = statistics.median(samples) * 1e3
            tracemalloc.start()
            search(0)
            peaks[f"{mode} L={L}"] = tracemalloc.get_traced_memory()[1] / 1024
            tracemalloc.stop()
    return {
        "median_ms": times,
        "tracemalloc_peak_kb": peaks,
        "results_sha256": hashlib.sha256(json.dumps(results).encode()).hexdigest(),
    }


def measure_write(dagdecode) -> dict:
    """``save_instance`` of ``cli-decode``'s seed-0 instances, into a temporary file."""
    import tracemalloc

    instances = perfbench_inputs(dagdecode, CLI_DECODE)
    times, written = [], hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        for inst in instances:
            times.append(median_ms(lambda: dagdecode.save_instance(inst, path), REPS))
            written.update(path.read_bytes())
        tracemalloc.start()
        dagdecode.save_instance(instances[0], path)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return {
        "save_ms": times,
        "tracemalloc_peak_mb": peak / 1e6,
        "written_sha256": written.hexdigest(),
    }


def middle_tokens(dagdecode, inst) -> tuple:
    """The joint-viterbi tokens of the feasible length nearest L // 2 + 1, which has the most paths."""
    table = dagdecode.build_viterbi_table(inst, dagdecode.TableMode.JOINT)
    hypotheses = dagdecode.decode_all_lengths(inst, table)
    return min(hypotheses, key=lambda h: abs(len(h.tokens) - (inst.L // 2 + 1))).tokens


def oracle_fields(result) -> list:
    """A marginal's ``float.hex``; or each length's path and ``float.hex``, the best and the count."""
    if isinstance(result, float):
        return [result.hex()]
    return [
        sorted((M, p.positions, float(v).hex()) for M, (p, v) in result.best_per_length.items()),
        result.global_best[0].positions, float(result.global_best[1]).hex(),
        result.path_count,
    ]


def measure_parse(src: str, file: str) -> dict:
    """``parse_instance`` of one file, timed in this (fresh) interpreter after its imports."""
    import tracemalloc

    sys.path.insert(0, src)
    from dagdecode import io

    text = Path(file).read_bytes().decode()
    start = time.perf_counter()
    instance = io.parse_instance(text)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    io.parse_instance(text)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tables = instance.log_transitions.tobytes() + instance.log_emissions.tobytes()
    return {
        "parse_instance_ms": elapsed * 1e3,
        "tracemalloc_peak_mb": peak / 1e6,
        "tables_sha256": hashlib.sha256(tables).hexdigest(),
    }


def write_parse_inputs(directory: Path) -> list[Path]:
    """``cli-decode``'s seed-0 files, written by this checkout's generator."""
    sys.path.insert(0, str(ROOT / "src"))
    import dagdecode

    files = []
    for k, inst in enumerate(perfbench_inputs(dagdecode, CLI_DECODE)):
        files.append(directory / f"inst_{k}.json")
        dagdecode.save_instance(inst, files[-1])
    return files


def run_side(src: Path, files: list[Path]) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--measure", str(src)],
        check=True, capture_output=True, text=True, cwd=ROOT,
    )
    side = json.loads(out.stdout)
    side["parse"], side["cli_decode"] = [], []
    for file in files:
        out = subprocess.run(
            [sys.executable, __file__, "--measure-parse", str(src), str(file)],
            check=True, capture_output=True, text=True, cwd=ROOT,
        )
        side["parse"].append(json.loads(out.stdout))
        env = dict(os.environ, PYTHONPATH=str(src))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CONSOLE, "decode", "--strategy", "joint-viterbi",
             "--input", str(file)],
            check=True, capture_output=True, cwd=ROOT, env=env,
        )
        side["cli_decode"].append({
            "wall_ms": (time.perf_counter() - start) * 1e3,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        })
    return side


def summarize_parse(runs: list[dict]) -> dict:
    """Medians, over every file of every round, of ``parse_instance`` and the CLI's wall time."""

    walls = sorted(c["wall_ms"] for r in runs for c in r["cli_decode"])
    return {
        **{s: round(statistics.median(p[s] for r in runs for p in r["parse"]), 2)
           for s in ("parse_instance_ms", "tracemalloc_peak_mb")},
        "cli_decode_wall_ms": {
            "median": round(statistics.median(walls), 1),
            "p75": round(walls[int(0.75 * (len(walls) - 1))], 1),
            "runs": len(walls),
        },
    }


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
        **{
            name: {k: med([r[name][k] for r in runs]) for k in runs[0][name]}
            for name in ("table_build_ms", "numpy_table_ms")
        },
        "work_per_call": runs[0]["work"],
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
        "oracle_ms": {
            k: med([r["oracle"]["median_ms"][k] for r in runs])
            for k in runs[0]["oracle"]["median_ms"]
        },
        "oracle_ms_per_round": {
            k: [round(r["oracle"]["median_ms"][k], 4) for r in runs]
            for k in runs[0]["oracle"]["median_ms"]
        },
        "oracle_tracemalloc_peak_kb": {
            k: round(v, 1) for k, v in runs[0]["oracle"]["tracemalloc_peak_kb"].items()
        },
        "write": {
            "save_ms": [med([r["write"]["save_ms"][k] for r in runs])
                        for k in range(len(runs[0]["write"]["save_ms"]))],
            "save_ms_per_round": [
                round(statistics.median(r["write"]["save_ms"]), 2) for r in runs
            ],
            "tracemalloc_peak_mb": med([r["write"]["tracemalloc_peak_mb"] for r in runs]),
        },
        "criterion7_ratio": {
            "median": med([r["criterion7_ratio"] for r in runs]),
            "per_round": [round(r["criterion7_ratio"], 2) for r in runs],
        },
        "criterion7_greedy_us": med([r["criterion7_greedy_us"] for r in runs]),
        "criterion7_joint_viterbi_ms": med([r["criterion7_joint_viterbi_ms"] for r in runs]),
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
    parser.add_argument("--out", type=Path)
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    parser.add_argument("--measure-parse", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.measure_parse:
        print(json.dumps(measure_parse(*args.measure_parse)))
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
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        files = write_parse_inputs(inputs)
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_side(sides[side], files))
    command = ["python3", "scripts/bench_fastpath.py", "--parent", args.parent,
               "--rounds", str(args.rounds)]
    if args.out:
        command += ["--out", str(args.out)]
    every = runs["parent"] + runs["change"]
    doc = {
        "command": " ".join(command),
        "parent": rev,
        "machine": machine(),
        "workload": "perfbench's seed-0 inputs, from its generated(): decode(inst, strategy, "
        "beta) on lib-decode's 8 L=256 V=32 instances; marginal scoring and compare_strategies "
        "on analyze's 16 L=64 V=16 instances, 4 strategies, beta 1; reading and decoding "
        "cli-decode's 4 L=512 V=32 files, one fresh interpreter per file, and saving its 4 "
        "instances; criterion 7 on seeds 99000-99002 at beta 1; build_viterbi_table on one "
        "V=32 instance (seed 0) "
        f"at L {TABLE_LENGTHS}; the oracle on oracle-check's V=5 inputs, "
        f"{ORACLE_LENGTHS} instances per L",
        "identical_cli_stdout": len({
            tuple(c["stdout_sha256"] for c in r["cli_decode"]) for r in every
        }) == 1,
        "identical_work_per_call": all(r["work"] == every[0]["work"] for r in every),
        "identical_averages": all(
            r["analyze"]["avg_logprob_repr"] == every[0]["analyze"]["avg_logprob_repr"]
            for r in every
        ),
        "identical_oracle_results": len({r["oracle"]["results_sha256"] for r in every}) == 1,
        "identical_tables": len({r["tables_sha256"] for r in every}) == 1,
        "identical_written_files": len({r["write"]["written_sha256"] for r in every}) == 1,
        "identical_parsed_tables": len({
            tuple(p["tables_sha256"] for p in r["parse"]) for r in every
        }) == 1,
        "rounds": args.rounds,
        "before": {**summarize(runs["parent"]), "read": summarize_parse(runs["parent"])},
        "after": {**summarize(runs["change"]), "read": summarize_parse(runs["change"])},
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    differ = [k for k, v in doc.items() if k.startswith("identical_") and not v]
    if differ:
        print(f"the two sides differ: {', '.join(differ)} false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
