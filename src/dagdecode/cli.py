"""Command-line surface tying the toolkit together.

Subcommands: ``gen`` (seeded synthetic instances), ``decode``, ``score``,
``oracle`` (exhaustive ground truth), ``analyze`` (strategy comparison),
and ``bench`` (timings). Every output document is JSON on stdout and
carries the input digest plus the effective configuration so runs are
reproducible. Exit codes: 0 success, 1 usage error, 2 data or validation
error, 3 infeasibility.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import analysis, decoders, oracle, scoring
from .errors import (
    DeadEndError,
    GeneratorConfigError,
    InfeasibleLengthError,
    InstanceFormatError,
    LatticeError,
    UnreachableTerminalError,
)
from .io import GeneratorConfig, generate_instance, parse_instance, save_instance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3

_INFEASIBLE_ERRORS = (InfeasibleLengthError, UnreachableTerminalError, DeadEndError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def run_cli(argv=None) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = json.dumps(args.handler(args), indent=2, allow_nan=False)
    except (_UsageError, GeneratorConfigError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and --version paths
        return int(exc.code or 0)
    except _INFEASIBLE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (LatticeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(text)
    return EXIT_OK


def main() -> None:
    sys.exit(run_cli())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dagdecode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write seeded synthetic instance files")
    gen.add_argument("--length", type=_positive_int, required=True)
    gen.add_argument("--vocab", type=_positive_int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=_positive_int, default=1)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--transition-concentration", type=_positive_float, default=1.0)
    gen.add_argument("--emission-concentration", type=_positive_float, default=1.0)
    gen.add_argument("--sparsity", type=float, default=0.0)
    gen.set_defaults(handler=_cmd_gen)

    dec = sub.add_parser("decode", help="decode one instance file")
    dec.add_argument("--strategy", choices=decoders.STRATEGIES, required=True)
    dec.add_argument("--beta", type=_nonnegative_float, default=decoders.DEFAULT_BETA)
    dec.add_argument("--input", required=True)
    dec.add_argument(
        "--all-lengths",
        action="store_true",
        help="also emit the best hypothesis of every feasible length",
    )
    dec.add_argument("--no-validate", action="store_true", help="accept invalid instances")
    dec.set_defaults(handler=_cmd_decode)

    sco = sub.add_parser("score", help="score a given path and token sequence")
    sco.add_argument("--input", required=True)
    sco.add_argument("--path", type=_int_list, required=True, help='e.g. "1,2,4"')
    sco.add_argument("--tokens", type=_int_list, required=True, help='e.g. "0,1,0"')
    sco.add_argument("--marginal", action="store_true", help="also sum over all paths")
    sco.add_argument("--no-validate", action="store_true")
    sco.set_defaults(handler=_cmd_score)

    orc = sub.add_parser("oracle", help="exhaustive enumeration ground truth")
    orc.add_argument("--input", required=True)
    orc.add_argument("--mode", choices=("path", "joint", "marginal"), required=True)
    orc.add_argument("--tokens", type=_int_list, help="required for --mode marginal")
    orc.add_argument("--cap", type=_positive_int, default=oracle.DEFAULT_CAP)
    orc.add_argument("--no-validate", action="store_true")
    orc.set_defaults(handler=_cmd_oracle)

    ana = sub.add_parser("analyze", help="compare strategies over an instance directory")
    ana.add_argument("--inputs", required=True, help="directory of instance files")
    ana.add_argument(
        "--strategies",
        type=_strategy_list,
        default=list(decoders.STRATEGIES),
        help="comma-separated strategy names",
    )
    ana.add_argument("--score", choices=analysis.SCORE_KINDS, default="joint")
    ana.add_argument("--beta", type=_nonnegative_float, default=decoders.DEFAULT_BETA)
    ana.add_argument("--no-validate", action="store_true")
    ana.set_defaults(handler=_cmd_analyze)

    ben = sub.add_parser("bench", help="time strategies on generated instances")
    ben.add_argument("--length", type=_positive_int, required=True)
    ben.add_argument("--vocab", type=_positive_int, required=True)
    ben.add_argument("--count", type=_positive_int, default=4)
    ben.add_argument("--reps", type=int, required=True)
    ben.add_argument(
        "--strategies", type=_strategy_list, default=list(decoders.STRATEGIES)
    )
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--beta", type=_nonnegative_float, default=decoders.DEFAULT_BETA)
    ben.set_defaults(handler=_cmd_bench)

    return parser


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


def _cmd_gen(args) -> dict:
    configs = [
        GeneratorConfig(
            L=args.length,
            V=args.vocab,
            seed=args.seed + k,
            transition_concentration=args.transition_concentration,
            emission_concentration=args.emission_concentration,
            sparsity=args.sparsity,
        )
        for k in range(args.count)
    ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    files = []
    for config in configs:
        path = out_dir / f"inst_{config.seed}.json"
        save_instance(generate_instance(config), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        files.append({"path": str(path), "sha256": digest})
    return {
        "command": "gen",
        "config": {
            "length": args.length,
            "vocab": args.vocab,
            "seed": args.seed,
            "count": args.count,
            "transition_concentration": args.transition_concentration,
            "emission_concentration": args.emission_concentration,
            "sparsity": args.sparsity,
        },
        "files": files,
    }


def _cmd_decode(args) -> dict:
    mode = decoders.TABLE_MODES.get(args.strategy)
    if args.all_lengths and mode is None:
        raise _UsageError("--all-lengths requires a viterbi-family strategy")
    instance, source = _load(args.input, args.no_validate)
    doc = {
        "command": "decode",
        "input": source,
        "config": {
            "strategy": args.strategy,
            "beta": args.beta,
            "validate": not args.no_validate,
        },
    }
    if mode is None:
        hyp = decoders.decode(instance, args.strategy, args.beta)
    else:
        hyp, selection, table = decoders.table_decode(instance, mode, args.beta)
    doc["hypothesis"] = _hypothesis_block(hyp, instance)
    doc["chosen_length"] = hyp.length
    if mode is not None:
        doc["per_length_scores"] = {
            str(length): {"raw": _sig12(raw), "penalized": _sig12(pen)}
            for length, (raw, pen) in sorted(selection.per_length_scores.items())
        }
    if args.all_lengths:
        doc["all_lengths"] = [
            _hypothesis_block(h, instance)
            for h in decoders.decode_all_lengths(instance, table)
        ]
    return doc


def _cmd_score(args) -> dict:
    instance, source = _load(args.input, args.no_validate)
    path_lp = scoring.path_log_prob(instance, args.path)
    emis_lp = scoring.translation_given_path_log_prob(instance, args.path, args.tokens)
    doc = {
        "command": "score",
        "input": source,
        "config": {
            "path": args.path,
            "tokens": args.tokens,
            "marginal": args.marginal,
        },
        "scores": {
            "path_logprob": _sig12(path_lp),
            "emission_logprob": _sig12(emis_lp),
            "joint_logprob": _sig12(scoring.joint_log_prob(instance, args.path, args.tokens)),
        },
    }
    if args.marginal:
        doc["scores"]["marginal_logprob"] = _sig12(
            scoring.marginal_translation_log_prob(instance, args.tokens)
        )
    return doc


def _cmd_oracle(args) -> dict:
    if args.mode == "marginal" and args.tokens is None:
        raise _UsageError("--mode marginal requires --tokens")
    instance, source = _load(args.input, args.no_validate)
    doc = {
        "command": "oracle",
        "input": source,
        "config": {"mode": args.mode, "cap": args.cap},
    }
    if args.mode == "marginal":
        doc["config"]["tokens"] = args.tokens
        doc["marginal_probability"] = oracle.brute_force_marginal(
            instance, args.tokens, cap=args.cap
        )
        return doc
    result = (
        oracle.brute_force_best_path(instance, cap=args.cap)
        if args.mode == "path"
        else oracle.brute_force_best_joint(instance, cap=args.cap)
    )
    best_path, best_prob = result.global_best
    doc["path_count"] = result.path_count
    doc["best_per_length"] = {
        str(length): {"path": list(p.positions), "probability": prob}
        for length, (p, prob) in sorted(result.best_per_length.items())
    }
    doc["global_best"] = {
        "length": len(best_path),
        "path": list(best_path.positions),
        "probability": best_prob,
    }
    return doc


def _cmd_analyze(args) -> dict:
    in_dir = Path(args.inputs)
    if not in_dir.is_dir():
        raise NotADirectoryError(f"{in_dir} is not a directory")
    files = sorted(in_dir.glob("*.json"))
    if not files:
        raise InstanceFormatError(f"no *.json instance files in {in_dir}")
    instances, sources = zip(*(_load(f, args.no_validate) for f in files))
    report = analysis.compare_strategies(
        instances, args.strategies, score_kind=args.score, beta=args.beta
    )
    return {
        "command": "analyze",
        "inputs": {
            "dir": str(in_dir),
            "files": list(sources),
        },
        "config": {
            "strategies": args.strategies,
            "score": args.score,
            "beta": args.beta,
        },
        "report": {
            "avg_logprob": {
                name: _sig12(v) for name, v in report.per_strategy_avg_logprob.items()
            },
            "win_rates": {
                f"{a}>{b}": rate for (a, b), rate in report.pairwise_win_rates.items()
            },
            "tie_rates": {
                f"{a}~{b}": rate for (a, b), rate in report.pairwise_tie_rates.items()
            },
            "optimum_match_rate": dict(report.optimum_match_rate),
        },
    }


def _cmd_bench(args) -> dict:
    if args.reps < 3:
        raise _UsageError("--reps must be >= 3")
    instances = [
        generate_instance(GeneratorConfig(L=args.length, V=args.vocab, seed=args.seed + k))
        for k in range(args.count)
    ]
    timings = analysis.benchmark(instances, args.strategies, repetitions=args.reps, beta=args.beta)
    return {
        "command": "bench",
        "config": {
            "length": args.length,
            "vocab": args.vocab,
            "count": args.count,
            "reps": args.reps,
            "seed": args.seed,
            "beta": args.beta,
            "strategies": args.strategies,
            "baseline": args.strategies[0],
        },
        "timings": {name: asdict(stats) for name, stats in timings.items()},
    }


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _load(path, no_validate: bool):
    """Read an instance file once: the parsed instance and the path and sha256 of those bytes."""
    data = Path(path).read_bytes()
    instance = parse_instance(data.decode(), run_validation=not no_validate)
    return instance, {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def _hypothesis_block(hyp, instance) -> dict:
    block = {
        "path": list(hyp.path.positions),
        "tokens": list(hyp.tokens),
        "length": hyp.length,
        "path_logprob": _sig12(hyp.path_logprob),
        "emission_logprob": _sig12(hyp.emission_logprob),
        "joint_logprob": _sig12(hyp.joint_logprob),
    }
    if instance.vocab is not None:
        block["token_strings"] = [instance.vocab[y] for y in hyp.tokens]
    return block


def _sig12(x: float):
    """Log-probabilities print with 12 significant digits; -inf becomes null."""
    if x == -math.inf:
        return None
    return float(f"{x:.12g}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _strategy_list(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    try:
        return analysis.check_strategies(names)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


if __name__ == "__main__":
    main()
