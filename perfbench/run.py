#!/usr/bin/env python3
"""Layered benchmark for dagdecode.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lib-decode --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

Each workload is a closed loop with one caller: the next request is sent only
after the previous one returned. There are no threads, and at most one
``dagdecode`` CLI child runs at a time. The package is imported from the
checkout's ``src`` and driven only through its public functions and its CLI;
it sees nothing but the instances generated from ``--seed``.

``--trace 0`` reports the end-to-end metrics of an untraced run. ``--trace 1``
alternates untraced and traced cycles of requests and reports per-layer
numbers from the traced ones (see ``spans.py``), plus the tracing overhead.
Every output is checked; the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans  # beside this script, so on sys.path when it runs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS_FILE = HERE / "expected_digests.json"

#: Seed whose per-request output digests are recorded in DIGESTS_FILE.
DIGEST_SEED = 0
#: Set-ups per run, spread evenly over it; setup_s is their median.
SETUP_ROUNDS = 8
BETA = 1.0
STRATEGIES = ("greedy", "lookahead", "viterbi", "joint-viterbi")
#: What the installed ``dagdecode`` console script runs.
CONSOLE = "import sys; from dagdecode.cli import main; sys.argv[0] = 'dagdecode'; main()"
CHILD_TIMEOUT_S = 120


class Failure(Exception):
    """A request whose output is wrong."""


def generated(dd, seed, offset, count, L, V):
    """Seeded instances; every 4th one forbids 30% of each row's successors."""
    return [
        dd.generate_instance(
            dd.GeneratorConfig(
                L=L, V=V, seed=seed * 100_000 + offset + k, sparsity=0.3 if k % 4 == 3 else 0.0
            )
        )
        for k in range(count)
    ]


def check_path(positions, L):
    if positions[0] != 1 or positions[-1] != L:
        raise Failure(f"path {positions[:3]}...{positions[-3:]} does not run from 1 to {L}")
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise Failure("path is not strictly increasing")


class Workload:
    """A set of request kinds (``keys``) served round-robin in a closed loop."""

    name = ""
    #: Spans that must record calls on a traced run: ones the benchmark calls
    #: directly, or without which the request cannot be served at all.
    expected_request_spans: tuple[str, ...] = ()
    expected_setup_spans: tuple[str, ...] = ("io.generate_instance",)
    #: Percentile reported as ``latency_ms.tail``: fixed per workload, so a
    #: faster or slower run compares the same quantile. It has at least ten
    #: samples beyond it in a 25 s run, and stays below the host stalls that
    #: make higher percentiles of the short requests unsteady (README).
    tail_percentile = 90

    def __init__(self, dd, seed, workdir):
        self.dd, self.seed, self.workdir = dd, seed, workdir
        self.keys: list[str] = []
        self.stdout_bytes: list[int] = []  # of CLI children

    def setup(self) -> None:
        """Generate (and write) the inputs; this is what setup_s times."""
        raise NotImplementedError

    def call(self, key, traced):
        """The timed request."""
        raise NotImplementedError

    def check(self, key, output) -> str:
        """Canonical text of a correct output; raises Failure otherwise."""
        raise NotImplementedError

    def collect(self, tracer, request) -> None:
        """Move spans recorded outside this process into ``tracer``."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class LibDecode(Workload):
    name = "lib-decode"
    expected_request_spans = ("decoders.decode",)

    def setup(self):
        self.instances = generated(self.dd, self.seed, 0, 8, 256, 32)
        self.keys = [f"i{i}/{s}" for i in range(8) for s in ("viterbi", "joint-viterbi")]

    def call(self, key, traced):
        i, strategy = key.split("/")
        return self.dd.decode(self.instances[int(i[1:])], strategy, BETA)

    def check(self, key, hyp):
        check_path(hyp.path.positions, 256)
        if not math.isfinite(hyp.joint_logprob):
            raise Failure(f"joint log-probability {hyp.joint_logprob}")
        return json.dumps(
            [hyp.path.positions, hyp.tokens, repr(hyp.path_logprob), repr(hyp.emission_logprob)]
        )


class CliDecode(Workload):
    name = "cli-decode"
    tail_percentile = 75
    expected_request_spans = ("cli.run_cli", "io.parse_instance", "lattice.validate")
    expected_setup_spans = ("io.generate_instance", "io.serialize_instance")

    def setup(self):
        self.files, self.sha = {}, {}
        for k, inst in enumerate(generated(self.dd, self.seed, 1000, 4, 512, 32)):
            key = f"file{k}"
            path = self.workdir / f"inst_{k}.json"
            self.dd.save_instance(inst, path)
            self.files[key] = path.relative_to(ROOT)
            self.sha[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        self.keys = list(self.files)
        self.env = src_env()
        self.spans_file = self.workdir / "spans.json"

    def call(self, key, traced):
        args = ["decode", "--strategy", "joint-viterbi", "--input", str(self.files[key])]
        if traced:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(self.spans_file), "--", *args]
        else:
            cmd = [sys.executable, "-c", CONSOLE, *args]
        return subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S
        )

    def collect(self, tracer, request):
        tracer.absorb(json.loads(self.spans_file.read_text()), request)
        self.spans_file.unlink()

    def check(self, key, proc):
        if proc.returncode != 0:
            raise Failure(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        self.stdout_bytes.append(len(proc.stdout))
        doc = json.loads(proc.stdout, parse_constant=_reject_constant)
        hyp = doc["hypothesis"]
        check_path(hyp["path"], 512)
        if doc["input"]["sha256"] != self.sha[key]:
            raise Failure("input digest differs from the file written")
        if not doc["chosen_length"] == hyp["length"] == len(hyp["path"]):
            raise Failure("chosen_length disagrees with the hypothesis")
        if str(hyp["length"]) not in doc["per_length_scores"]:
            raise Failure("chosen length missing from per_length_scores")
        del doc["input"]["path"]
        return json.dumps(doc, sort_keys=True)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _reject_constant(name):
    raise Failure(f"stdout is not strict JSON: {name}")


class Analyze(Workload):
    name = "analyze"
    expected_request_spans = (
        "analysis.compare_strategies",
        "scoring.marginal_translation_log_prob",
    )

    def setup(self):
        self.instances = generated(self.dd, self.seed, 2000, 16, 64, 16)
        self.keys = ["report"]

    def call(self, key, traced):
        return self.dd.compare_strategies(
            self.instances, STRATEGIES, score_kind="marginal", beta=BETA
        )

    def check(self, key, report):
        avg = report.per_strategy_avg_logprob
        if set(avg) != set(STRATEGIES) or not all(math.isfinite(v) for v in avg.values()):
            raise Failure(f"average log-probabilities {avg}")
        if report.optimum_match_rate["joint-viterbi"] != 1.0:
            raise Failure("joint-viterbi is not optimal for its own length")
        rates = [*report.pairwise_win_rates.values(), *report.pairwise_tie_rates.values()]
        if not all(0.0 <= r <= 1.0 for r in rates):
            raise Failure("a win or tie rate lies outside [0, 1]")
        return json.dumps(
            {
                "avg": {k: repr(v) for k, v in avg.items()},
                "win": {"%s>%s" % k: v for k, v in report.pairwise_win_rates.items()},
                "tie": {"%s~%s" % k: v for k, v in report.pairwise_tie_rates.items()},
                "match": report.optimum_match_rate,
            },
            sort_keys=True,
        )


class OracleCheck(Workload):
    name = "oracle-check"
    expected_request_spans = (
        "oracle.brute_force_best_path",
        "oracle.brute_force_best_joint",
        "decoders.viterbi_decode",
        "decoders.joint_viterbi_decode",
    )

    def setup(self):
        self.instances = generated(self.dd, self.seed, 3000, 8, 13, 5)
        self.keys = [f"i{i}" for i in range(8)]

    def call(self, key, traced):
        inst = self.instances[int(key[1:])]
        return (
            self.dd.brute_force_best_path(inst),
            self.dd.brute_force_best_joint(inst),
            self.dd.viterbi_decode(inst, 0.0),
            self.dd.joint_viterbi_decode(inst, 0.0),
        )

    def check(self, key, output):
        best_path, best_joint, vit, jv = output
        for name, got, want in (
            ("path", math.exp(vit.path_logprob), best_path.global_best[1]),
            ("joint", math.exp(jv.joint_logprob), best_joint.global_best[1]),
        ):
            if not math.isclose(got, want, rel_tol=1e-9):
                raise Failure(f"{name} optimum {got!r} disagrees with enumeration {want!r}")
        return json.dumps(
            [
                [best_path.global_best[0].positions, repr(best_path.global_best[1])],
                [best_joint.global_best[0].positions, repr(best_joint.global_best[1])],
                best_path.path_count + best_joint.path_count,
                [vit.path.positions, vit.tokens, repr(vit.joint_logprob)],
                [jv.path.positions, jv.tokens, repr(jv.joint_logprob)],
            ]
        )


WORKLOADS = {w.name: w for w in (LibDecode, CliDecode, Analyze, OracleCheck)}


def tail(latencies, p):
    """The p-th percentile (nearest rank) and the number of samples beyond it."""
    xs = sorted(latencies)
    rank = math.ceil(p * len(xs) / 100)
    return xs[rank - 1], len(xs) - rank


def src_env():
    """Environment for a child that imports dagdecode from the checkout."""
    paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def timed(cmd, env):
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def import_ms(env, pairs=7):
    """Fresh ``import dagdecode`` minus a bare interpreter start, medians of pairs."""
    bare, full = [], []
    for _ in range(pairs):
        bare.append(timed([sys.executable, "-c", "pass"], env))
        full.append(timed([sys.executable, "-c", "import dagdecode"], env))
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def jv_over_greedy(dd, seed):
    """Acceptance criterion 7's ratio on the lib-decode instances (medians)."""
    instances = generated(dd, seed, 0, 8, 256, 32)
    greedy, joint = [], []
    for _ in range(3):
        for inst in instances:
            start = time.perf_counter()
            dd.greedy_decode(inst)
            greedy.append(time.perf_counter() - start)
            start = time.perf_counter()
            dd.joint_viterbi_decode(inst, BETA)
            joint.append(time.perf_counter() - start)
    return statistics.median(joint) / statistics.median(greedy)


def load_package():
    if not (SRC / "dagdecode" / "__init__.py").is_file():
        raise SystemExit(f"error: no dagdecode package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dagdecode
    import dagdecode.cli  # noqa: F401  (loads every traced module)

    if not Path(dagdecode.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported dagdecode from {dagdecode.__file__}, not {SRC}")
    return dagdecode


def recorded_digests():
    if not DIGESTS_FILE.is_file():
        return {}
    return json.loads(DIGESTS_FILE.read_text())["workloads"]


def run(workload_name, seed, seconds, trace, record=False):
    dd = load_package()
    recorded = {}
    if seed == DIGEST_SEED and not record:
        recorded = recorded_digests().get(workload_name, {})
    workdir = WORK / f"{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer()
    try:
        wl = WORKLOADS[workload_name](dd, seed, workdir)
        setup_times = []

        def set_up():
            if trace:
                tracer.install()
            tracer.request = f"setup{len(setup_times)}"
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)
            tracer.uninstall()
            return setup_times[-1]

        set_up()
        # Untimed warm-up: imports, .pyc files and first calls are paid here.
        wl.check(wl.keys[0], wl.call(wl.keys[0], False))
        seen, errors = {}, []
        latencies = {False: [], True: []}
        traced_requests = []
        if trace:
            min_requests = len(wl.keys) * 2
        else:  # enough for ten samples beyond the tail percentile
            min_requests = math.ceil(1000 / (100 - wl.tail_percentile))
        k = 0
        paused = 0.0  # spent in set-ups, which do not count as measured time
        start = time.perf_counter()
        while k < min_requests or time.perf_counter() - paused < start + seconds:
            # The other set-ups fall between cycles, spread over the run, so
            # that they meet the host in the same phases as the requests.
            share = (time.perf_counter() - paused - start) / seconds
            if k % len(wl.keys) == 0 and share >= len(setup_times) / SETUP_ROUNDS:
                paused += set_up()
            key = wl.keys[k % len(wl.keys)]
            traced = bool(trace) and (k // len(wl.keys)) % 2 == 1
            if traced:
                tracer.install()
                tracer.request = k
                traced_requests.append(k)
            t0 = time.perf_counter()
            try:
                output = wl.call(key, traced)
            except Exception as exc:  # a failed request is counted, not fatal
                output = exc
            latencies[traced].append(time.perf_counter() - t0)
            tracer.uninstall()
            try:
                if isinstance(output, Exception):
                    raise output
                if traced:
                    wl.collect(tracer, k)
                digest = hashlib.sha256(wl.check(key, output).encode()).hexdigest()
                if seen.setdefault(key, digest) != digest:
                    raise Failure("output differs from an earlier request of the same kind")
                if recorded and recorded.get(key) != digest:
                    raise Failure(f"output digest differs from the one recorded for seed {seed}")
            except Exception as exc:
                errors.append(f"{key}: {exc!r}")
            k += 1
        elapsed = time.perf_counter() - start - paused
        while len(setup_times) < SETUP_ROUNDS:  # a run too short to spread them
            set_up()
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = k
    failed = len(errors)
    if record and not errors:
        digests = recorded_digests()
        digests[workload_name] = dict(sorted(seen.items()))
        DIGESTS_FILE.write_text(
            json.dumps({"seed": DIGEST_SEED, "workloads": digests}, indent=1) + "\n"
        )
    workload_digest = hashlib.sha256(
        "".join(f"{key}={seen[key]}\n" for key in sorted(seen)).encode()
    ).hexdigest()
    digest_note = "recorded digests match" if recorded and not errors else (
        "no recorded digests for this seed" if not recorded else "MISMATCH or failure"
    )
    print(f"workload {workload_name} seed {seed} trace {trace}: {attempted} requests "
          f"in {elapsed:.1f} s, {failed} failed, error_rate {failed / attempted:g}")
    for line in errors[:10]:
        print(f"  failure {line}")
    print(f"  digest {workload_digest} over {len(seen)} outputs ({digest_note})")

    if trace:
        metrics = layer_metrics(dd, wl, tracer, traced_requests, latencies, seed)
    else:
        ms = sorted(x * 1e3 for x in latencies[False])
        value, beyond = tail(ms, wl.tail_percentile)
        print(f"  latency_ms.tail is p{wl.tail_percentile} with {beyond} of {len(ms)} "
              "samples beyond it")
        print(f"  not gated: latency_ms.p10 {ms[math.ceil(0.1 * len(ms)) - 1]:.6g} ms, "
              f"latency_ms.p50 {statistics.median(ms):.6g} ms, "
              f"throughput {attempted / elapsed:.6g} 1/s")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "latency_ms.tail": (value, "ms"),
            "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    return {
        "correct": failed == 0 and len(seen) == len(wl.keys),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(dd, wl, tracer, traced_requests, latencies, seed):
    n = len(traced_requests)
    request = spans.summarize(tracer.spans, traced_requests)
    setup = spans.summarize(tracer.spans, [f"setup{r}" for r in range(SETUP_ROUNDS)])
    absent = [s for s in wl.expected_request_spans if request.get(s, {}).get("calls", 0) == 0]
    absent += [s for s in wl.expected_setup_spans if setup.get(s, {}).get("calls", 0) == 0]
    if absent or tracer.missing:
        raise SystemExit(
            f"error: traced run of {wl.name} recorded no calls to {absent}; "
            f"functions not found in dagdecode: {sorted(tracer.missing)}"
        )

    def ms(name, field="total_s", where=request, per=n):
        return (where.get(name, {}).get(field, 0.0) * 1e3 / per, "ms")

    def count(counter):
        return sum(tracer.counts.get(k, {}).get(counter, 0) for k in traced_requests)

    builds = request.get("decoders.build_viterbi_table", {}).get("calls", 0)
    table_bytes = max(
        [tracer.counts.get(k, {}).get("decoders.table_bytes", 0) for k in traced_requests]
    )
    overhead = statistics.median(latencies[True]) - statistics.median(latencies[False])
    return {
        "cli.import_ms": (import_ms(src_env()) if isinstance(wl, CliDecode) else 0.0, "ms"),
        "cli.run_cli_ms": ms("cli.run_cli"),
        "cli.stdout_bytes": (statistics.mean(wl.stdout_bytes or [0]), "bytes"),
        "io.parse_instance_ms": ms("io.parse_instance"),
        "io.read_bytes": (count("io.read_bytes") / n, "bytes"),
        "io.serialize_instance_ms": ms("io.serialize_instance", where=setup, per=SETUP_ROUNDS),
        "io.generate_instance_ms": ms("io.generate_instance", where=setup, per=SETUP_ROUNDS),
        "lattice.validate_ms": ms("lattice.validate"),
        "decoders.build_viterbi_table_ms": ms("decoders.build_viterbi_table"),
        "decoders.table_builds_per_request": (builds / n, "count"),
        "decoders.table_useful_ratio": (
            count("decoders.distinct_tables") / builds if builds else 1.0, "ratio"
        ),
        "decoders.table_bytes": (table_bytes, "bytes-computed"),
        "decoders.select_length_ms": ms("decoders.select_length"),
        "decoders.backtrace_ms": ms("decoders.backtrace"),
        "decoders.argmax_hypothesis_ms": ms("decoders.argmax_hypothesis"),
        "decoders.greedy_decode_ms": ms("decoders.greedy_decode"),
        "decoders.lookahead_decode_ms": ms("decoders.lookahead_decode"),
        "decoders.jv_over_greedy": (
            jv_over_greedy(dd, seed) if isinstance(wl, LibDecode) else 0.0, "ratio"
        ),
        "scoring.marginal_ms": ms("scoring.marginal_translation_log_prob"),
        "scoring.marginal_calls_per_request": (
            request.get("scoring.marginal_translation_log_prob", {}).get("calls", 0) / n,
            "count",
        ),
        "scoring.path_log_prob_ms": ms("scoring.path_log_prob"),
        "analysis.compare_strategies_self_ms": ms("analysis.compare_strategies", "self_s"),
        "oracle.brute_force_best_joint_ms": ms("oracle.brute_force_best_joint"),
        "oracle.brute_force_best_path_ms": ms("oracle.brute_force_best_path"),
        "oracle.paths_enumerated_per_request": (count("oracle.paths_enumerated") / n, "count"),
        "trace.overhead_ms": (overhead * 1e3, "ms"),
    }


def run_all(seed, seconds):
    """Every workload untraced then traced, each in a fresh process."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"error: {name} --trace {trace} exited {proc.returncode}")
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                merged[f"{name}/{metric}"] = entry
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help=f"store this run's output digests as the expected ones for seed {DIGEST_SEED}; "
        "only for a change meant to alter outputs",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record_digests and (args.seed != DIGEST_SEED or args.workload == "all"):
        parser.error(f"--record-digests needs one --workload and --seed {DIGEST_SEED}")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run(args.workload, args.seed, args.seconds, args.trace, args.record_digests)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
