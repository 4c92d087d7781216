import hashlib
import json
import math
import os
import runpy
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dagdecode
from dagdecode import Instance, TableMode, _cpass, io, save_instance, scoring
from dagdecode.cli import main, run_cli
from dagdecode.decoders import STRATEGIES
from dagdecode.io import instance_to_dict

from conftest import (
    reader_corpus,
    reference_parse_instance,
    reference_serialize_instance,
    run_python,
    with_transitions,
)


@pytest.fixture
def keep_sigpipe():
    """Puts back this process's SIGPIPE action, which ``main`` sets to the default."""
    handler = signal.getsignal(signal.SIGPIPE) if hasattr(signal, "SIGPIPE") else None
    yield
    if handler is not None:
        signal.signal(signal.SIGPIPE, handler)


@pytest.fixture
def i4_file(tmp_path, i4):
    path = tmp_path / "I4.json"
    save_instance(i4, path)
    return path


@pytest.fixture
def i2_file(tmp_path, i2):
    path = tmp_path / "I2.json"
    save_instance(i2, path)
    return path


@pytest.fixture
def backward_file(tmp_path, i4):
    """I4, unvalidated, with finite hops from position 3 to itself and back to 2."""
    path = tmp_path / "backward.json"
    save_instance(with_transitions(i4, {(2, 2): 1.0, (2, 1): 5.0}), path)
    return path


def run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecode:
    def test_joint_viterbi_golden(self, capsys, i4_file):
        code, out, _ = run(
            capsys,
            ["decode", "--strategy", "joint-viterbi", "--beta", "0", "--input", str(i4_file)],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["hypothesis"]["path"] == [1, 2, 3, 4]
        assert doc["hypothesis"]["tokens"] == [0, 1, 0, 1]
        assert doc["hypothesis"]["joint_logprob"] == pytest.approx(
            math.log(0.127008), abs=1e-9
        )
        assert doc["chosen_length"] == 4
        assert set(doc["per_length_scores"]) == {"2", "3", "4"}
        assert doc["config"] == {"strategy": "joint-viterbi", "beta": 0.0, "validate": True}
        assert len(doc["input"]["sha256"]) == 64

    def test_greedy_has_no_length_table(self, capsys, i4_file):
        code, out, _ = run(capsys, ["decode", "--strategy", "greedy", "--input", str(i4_file)])
        assert code == 0
        doc = json.loads(out)
        assert "per_length_scores" not in doc
        assert doc["hypothesis"]["path"] == [1, 2, 3, 4]

    def test_all_lengths(self, capsys, i4_file):
        code, out, _ = run(
            capsys,
            [
                "decode",
                "--strategy",
                "viterbi",
                "--beta",
                "0",
                "--input",
                str(i4_file),
                "--all-lengths",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        lengths = [h["length"] for h in doc["all_lengths"]]
        assert lengths == [2, 3, 4]
        assert doc["all_lengths"][1]["path"] == [1, 2, 4]

    def test_all_lengths_builds_one_table(self, capsys, i4_file, table_builds):
        code, _, _ = run(
            capsys,
            ["decode", "--strategy", "joint-viterbi", "--input", str(i4_file), "--all-lengths"],
        )
        assert code == 0
        assert table_builds == [TableMode.JOINT]

    def test_all_lengths_needs_table_strategy(self, capsys, i4_file):
        code, _, err = run(
            capsys,
            ["decode", "--strategy", "greedy", "--input", str(i4_file), "--all-lengths"],
        )
        assert code == 1
        assert "viterbi" in err

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_is_usage_error(self, capsys, i4_file, beta):
        code, out, err = run(
            capsys, ["decode", "--strategy", "viterbi", "--beta", beta, "--input", str(i4_file)]
        )
        assert code == 1
        assert out == ""
        assert "--beta" in err

    def test_huge_beta_picks_longest_length(self, capsys, i4_file):
        # 3**1000 and 4**1000 overflow a float; they count as infinite penalties.
        code, out, _ = run(
            capsys,
            ["decode", "--strategy", "joint-viterbi", "--beta", "1000", "--input", str(i4_file)],
        )
        assert code == 0
        assert json.loads(out)["chosen_length"] == 4

    def test_non_finite_output_is_data_error(self, capsys, i2_file, monkeypatch):
        monkeypatch.setattr(scoring, "path_log_prob", lambda instance, path: math.nan)
        code, out, err = run(
            capsys, ["score", "--input", str(i2_file), "--path", "1,2", "--tokens", "0,1"]
        )
        assert code == 2
        assert out == ""
        assert err

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["decode", "--strategy", "viterbi", "--input", str(tmp_path / "missing.json")]
        )
        assert code == 2
        assert err

    def test_input_file_read_once(self, capsys, i4_file, monkeypatch):
        reads = []
        for attr in ("read_bytes", "read_text"):
            original = getattr(Path, attr)

            def counting(path, *args, _original=original, **kwargs):
                reads.append(path)
                return _original(path, *args, **kwargs)

            monkeypatch.setattr(Path, attr, counting)
        code, out, _ = run(capsys, ["decode", "--strategy", "viterbi", "--input", str(i4_file)])
        assert code == 0
        assert reads == [i4_file]
        digest = hashlib.sha256(i4_file.read_bytes()).hexdigest()
        assert json.loads(out)["input"]["sha256"] == digest

    def test_integer_beyond_float_range_is_data_error(self, capsys, tmp_path, i2):
        doc = json.loads(dagdecode.serialize_instance(i2))
        doc["log_emissions"][1][0] = 10**400
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["decode", "--strategy", "greedy", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: log_emissions[1][0] must be")

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200_000,
            '{"L": 2, "meta": ' + "[" * 200_000 + "]" * 200_000 + "}",
            '{"L": 1' + "0" * 5000 + "}",
        ],
        ids=["deep", "deep-meta", "long-integer"],
    )
    def test_json_too_deep_or_long_is_data_error(self, capsys, tmp_path, text):
        path = tmp_path / "unreadable.json"
        path.write_text(text)
        code, out, err = run(capsys, ["decode", "--strategy", "greedy", "--input", str(path)])
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: not valid JSON: ")

    def test_vocab_prints_token_strings(self, capsys, tmp_path, i4):
        path = tmp_path / "words.json"
        save_instance(Instance(L=4, V=2, log_transitions=i4.log_transitions,
                               log_emissions=i4.log_emissions, vocab=["yes", "no"]), path)
        code, out, _ = run(
            capsys, ["decode", "--strategy", "joint-viterbi", "--beta", "0", "--input", str(path)]
        )
        assert code == 0
        hypothesis = json.loads(out)["hypothesis"]
        assert hypothesis["tokens"] == [0, 1, 0, 1]
        assert hypothesis["token_strings"] == ["yes", "no", "yes", "no"]

    def test_unknown_strategy_is_usage_error(self, capsys, i4_file):
        code, _, _ = run(capsys, ["decode", "--strategy", "beam", "--input", str(i4_file)])
        assert code == 1

    def test_twelve_significant_digits(self, capsys, i4_file):
        code, out, _ = run(
            capsys, ["decode", "--strategy", "viterbi", "--beta", "0", "--input", str(i4_file)]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["hypothesis"]["path_logprob"] == float(f"{math.log(0.42):.12g}")

    def test_invalid_instance_rejected_unless_overridden(self, capsys, tmp_path, i2):
        trans = np.array(i2.log_transitions)
        trans.setflags(write=True)
        trans[0, 1] = math.log(0.5)
        broken = Instance(L=2, V=2, log_transitions=trans, log_emissions=i2.log_emissions)
        path = tmp_path / "broken.json"
        save_instance(broken, path)
        code, _, err = run(capsys, ["decode", "--strategy", "greedy", "--input", str(path)])
        assert code == 2
        assert "row 1" in err
        code, out, _ = run(
            capsys,
            ["decode", "--strategy", "greedy", "--input", str(path), "--no-validate"],
        )
        assert code == 0
        assert json.loads(out)["hypothesis"]["path"] == [1, 2]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize(
        "cell, value",
        [((2, 2), 1.0), ((2, 1), 5.0), ((2, 0), 0.5)],
        ids=["diagonal", "below-diagonal", "below-diagonal-start"],
    )
    def test_walk_ignores_entries_not_later(self, tmp_path, i4, cell, value, strategy):
        # Unvalidated finite entries on or below the diagonal outscore every
        # later position; every strategy must still only move forward. A
        # subprocess, so that a walk which never returns fails instead of stalling.
        path = tmp_path / "backward.json"
        save_instance(with_transitions(i4, {cell: value}), path)
        proc = run_python(
            "-m", "dagdecode.cli", "decode", "--strategy", strategy, "--input", str(path),
            "--no-validate",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["hypothesis"]["path"] == [1, 2, 3, 4]

    def test_per_length_scores_ignore_backward_hop(self, capsys, backward_file):
        code, out, _ = run(
            capsys,
            ["decode", "--strategy", "viterbi", "--beta", "0", "--input", str(backward_file),
             "--no-validate"],
        )
        assert code == 0
        scores = json.loads(out)["per_length_scores"]
        code, out, _ = run(
            capsys, ["oracle", "--mode", "path", "--input", str(backward_file), "--no-validate"]
        )
        assert code == 0
        best = json.loads(out)["best_per_length"]
        assert set(scores) == {m for m, b in best.items() if b["probability"] > 0}
        for length, score in scores.items():
            assert score["raw"] == pytest.approx(math.log(best[length]["probability"]), abs=1e-9)

    def test_dead_end_is_infeasibility(self, capsys, tmp_path, i4):
        trans = np.array(i4.log_transitions)
        trans.setflags(write=True)
        trans[0, :] = -math.inf
        broken = Instance(L=4, V=2, log_transitions=trans, log_emissions=i4.log_emissions)
        path = tmp_path / "deadend.json"
        save_instance(broken, path)
        for strategy in ("greedy", "joint-viterbi"):
            code, _, _ = run(
                capsys,
                ["decode", "--strategy", strategy, "--input", str(path), "--no-validate"],
            )
            assert code == 3

    def test_joint_weight_overflow_is_data_error(self, capsys, tmp_path, i4):
        # Finite numbers whose JOINT weight, hop 2 -> 4 plus its best emission,
        # overflows: bad data (exit 2) for every command, not an unreachable
        # terminal (exit 3), a success, or a JSON error.
        doc = instance_to_dict(i4)
        doc["log_transitions"][1][3] = 1e308
        doc["log_emissions"][3][0] = 1e308
        in_dir = tmp_path / "inputs"
        in_dir.mkdir()
        path = in_dir / "overflow.json"
        path.write_text(json.dumps(doc))
        commands = [["decode", "--strategy", s, "--input", str(path)] for s in STRATEGIES]
        commands += [
            ["score", "--input", str(path), "--path", "1,2,4", "--tokens", "0,1,0"],
            ["oracle", "--input", str(path), "--mode", "joint"],
            ["analyze", "--inputs", str(in_dir)],
        ]
        for argv in commands:
            code, out, err = run(capsys, [*argv, "--no-validate"])
            assert (code, out) == (2, ""), argv
            assert "log_transitions[1][3] plus the best of log_emissions[3] overflows" in err

    def test_path_score_overflow_is_data_error(self, capsys, tmp_path):
        # Hops 1 -> 2 -> 3 of 1e308 each: the length-3 path's score overflows.
        doc = {
            "L": 3,
            "V": 1,
            "log_transitions": [[None, 1e308, -1.0], [None, None, 1e308], [None] * 3],
            "log_emissions": [[0.0]] * 3,
        }
        path = tmp_path / "path-overflow.json"
        path.write_text(json.dumps(doc))
        for strategy in ("viterbi", "joint-viterbi"):
            code, out, err = run(
                capsys,
                ["decode", "--strategy", strategy, "--beta", "0", "--input", str(path),
                 "--no-validate"],
            )
            assert (code, out) == (2, "")
            assert "a path score overflows to +inf within 3 positions" in err


    def test_hypothesis_score_overflow_is_data_error(self, capsys, tmp_path):
        # Each row's best emission is 0.8e308: a three-position hypothesis'
        # emission_logprob overflows. A data error (exit 2), not a JSON error.
        doc = {
            "L": 3,
            "V": 2,
            "log_transitions": [[None, math.log(0.5), math.log(0.5)], [None, None, 0.0],
                                [None] * 3],
            "log_emissions": [[0.8e308, -1.0]] * 3,
        }
        path = tmp_path / "emission-overflow.json"
        path.write_text(json.dumps(doc))
        for strategy in ("greedy", "viterbi", "lookahead"):
            code, out, err = run(
                capsys,
                ["decode", "--strategy", strategy, "--beta", "0.5", "--input", str(path),
                 "--no-validate"],
            )
            assert (code, out) == (2, "")
            assert "the hypothesis' emission_logprob overflows to +inf" in err


class TestScore:
    def test_golden(self, capsys, i2_file):
        code, out, _ = run(
            capsys, ["score", "--input", str(i2_file), "--path", "1,2", "--tokens", "0,1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["scores"]["joint_logprob"] == pytest.approx(math.log(0.72), abs=1e-9)
        assert doc["scores"]["path_logprob"] == 0.0

    def test_marginal_flag(self, capsys, i4_file):
        code, out, _ = run(
            capsys,
            [
                "score",
                "--input",
                str(i4_file),
                "--path",
                "1,2,4",
                "--tokens",
                "0,1,0",
                "--marginal",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["scores"]["marginal_logprob"] == pytest.approx(
            math.log(0.05616), abs=1e-9
        )

    def test_marginal_ignores_backward_hop(self, capsys, backward_file):
        tokens = ["--tokens", "0,1,0,1", "--input", str(backward_file), "--no-validate"]
        code, out, _ = run(capsys, ["score", "--path", "1,2,3,4", "--marginal", *tokens])
        assert code == 0
        marginal = json.loads(out)["scores"]["marginal_logprob"]
        code, out, _ = run(capsys, ["oracle", "--mode", "marginal", *tokens])
        assert code == 0
        exact = json.loads(out)["marginal_probability"]
        assert marginal == pytest.approx(math.log(exact), abs=1e-9)

    def test_bad_path_is_data_error(self, capsys, i4_file):
        code, _, _ = run(
            capsys, ["score", "--input", str(i4_file), "--path", "1,3,2,4", "--tokens", "0,0,0,0"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "path, score",
        [("1,2,4", "emission log-probability"), ("1,3,4", "marginal log-probability")],
    )
    def test_score_overflow_is_data_error(self, capsys, tmp_path, i4, path, score):
        # Token 0 emits 1e308 at positions 1 and 2: along 1,2,4 the emission
        # score overflows, along 1,3,4 only the marginal (which sums 1,2,4 too).
        doc = instance_to_dict(i4)
        doc["log_emissions"][0][0] = doc["log_emissions"][1][0] = 1e308
        file = tmp_path / "huge.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(
            capsys,
            ["score", "--input", str(file), "--path", path, "--tokens", "0,0,0", "--marginal",
             "--no-validate"],
        )
        assert (code, out) == (2, "")
        assert err == f"error: instance failed validation: the {score} overflows to +inf\n"

    def test_path_score_overflow_is_data_error(self, capsys, tmp_path):
        # Hops 1 -> 2 -> 3 of 1e308 each: the path score overflows.
        doc = {
            "L": 3,
            "V": 1,
            "log_transitions": [[None, 1e308, -1.0], [None, None, 1e308], [None] * 3],
            "log_emissions": [[0.0]] * 3,
        }
        file = tmp_path / "path-overflow.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(
            capsys,
            ["score", "--input", str(file), "--path", "1,2,3", "--tokens", "0,0,0",
             "--no-validate"],
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: instance failed validation: the path log-probability overflows to +inf\n"
        )

    def test_joint_score_overflow_is_data_error(self, capsys, tmp_path):
        # Hop 1 -> 2 and position 1's only emission score 1e308 each: only the joint overflows.
        doc = {"L": 2, "V": 1, "log_transitions": [[None, 1e308], [None, None]],
               "log_emissions": [[1e308], [0.0]]}
        file = tmp_path / "joint-overflow.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(
            capsys,
            ["score", "--input", str(file), "--path", "1,2", "--tokens", "0,0", "--no-validate"],
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: instance failed validation: the joint log-probability overflows to +inf\n"
        )

    def test_non_integer_path_is_usage_error(self, capsys, i4_file):
        code, _, _ = run(
            capsys, ["score", "--input", str(i4_file), "--path", "1,x", "--tokens", "0,1"]
        )
        assert code == 1

    def test_token_beyond_integer_range_is_data_error(self, capsys, i4_file):
        big = str(10**30)
        code, out, err = run(
            capsys, ["score", "--input", str(i4_file), "--path", "1,2,4", "--tokens", f"0,1,{big}"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: token id {big} outside")

    @pytest.mark.parametrize("path", ["1,,4", "1,4,", ",1,4"])
    def test_empty_list_item_is_usage_error(self, capsys, i4_file, path):
        code, _, err = run(
            capsys, ["score", "--input", str(i4_file), "--path", path, "--tokens", "0,1"]
        )
        assert code == 1
        assert "--path" in err


class TestOracle:
    def test_path_mode(self, capsys, i4_file):
        code, out, _ = run(capsys, ["oracle", "--input", str(i4_file), "--mode", "path"])
        assert code == 0
        doc = json.loads(out)
        assert doc["path_count"] == 4
        assert doc["global_best"]["path"] == [1, 2, 3, 4]
        assert doc["global_best"]["probability"] == pytest.approx(0.42, rel=1e-12)
        assert doc["best_per_length"]["3"]["path"] == [1, 2, 4]

    def test_marginal_mode(self, capsys, i4_file):
        code, out, _ = run(
            capsys,
            ["oracle", "--input", str(i4_file), "--mode", "marginal", "--tokens", "0,1,0"],
        )
        assert code == 0
        assert json.loads(out)["marginal_probability"] == pytest.approx(0.05616, rel=1e-12)

    def test_marginal_token_beyond_integer_range_is_data_error(self, capsys, i4_file):
        big = str(10**30)
        code, out, err = run(
            capsys,
            ["oracle", "--input", str(i4_file), "--mode", "marginal", "--tokens", f"0,{big}"],
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: token id {big} outside")

    @pytest.mark.parametrize("mode", ["path", "joint", "marginal"])
    def test_probability_overflow_is_data_error(self, capsys, tmp_path, mode):
        # Hop 2 -> 3 scores 800: exp(800) overflows, so the path 1 -> 2 -> 3 has probability +inf.
        doc = {"L": 3, "V": 1, "log_transitions": [[None, -0.5, -1.0], [None, None, 800.0],
                                                   [None] * 3],
               "log_emissions": [[0.0]] * 3}
        file = tmp_path / "huge-hop.json"
        file.write_text(json.dumps(doc))
        tokens = ["--tokens", "0,0,0"] if mode == "marginal" else []
        code, out, err = run(
            capsys, ["oracle", "--input", str(file), "--mode", mode, *tokens, "--no-validate"]
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: instance failed validation: the {mode} probability overflows to +inf\n"
        )

    @pytest.mark.parametrize("mode", ["path", "joint"])
    def test_overflow_times_impossible_is_probability_zero(self, capsys, tmp_path, mode):
        # Path 1 -> 2 -> 4 scores exp(800) x 0; the best 3-position path is 1 -> 3 -> 4.
        trans = [[None, 800.0, -1.0, -2.0], [None] * 4, [None, None, None, -1.0], [None] * 4]
        file = tmp_path / "huge-times-impossible.json"
        file.write_text(json.dumps({"L": 4, "V": 1, "log_transitions": trans,
                                    "log_emissions": [[0.0]] * 4}))
        code, out, err = run(capsys, ["oracle", "--input", str(file), "--mode", mode,
                                      "--no-validate"])
        assert (code, err) == (0, "")
        assert json.loads(out)["global_best"] == {
            "length": 3, "path": [1, 3, 4], "probability": math.exp(-2)
        }

    def test_marginal_requires_tokens(self, capsys, i4_file):
        code, _, _ = run(capsys, ["oracle", "--input", str(i4_file), "--mode", "marginal"])
        assert code == 1

    @pytest.mark.parametrize("content", [None, '{"L": 2}'])
    def test_marginal_without_tokens_is_usage_error_before_reading(self, capsys, tmp_path,
                                                                   content):
        # As decode checks --all-lengths: a missing or malformed file is not read first.
        file = tmp_path / "inst.json"
        if content is not None:
            file.write_text(content)
        code, out, err = run(capsys, ["oracle", "--input", str(file), "--mode", "marginal"])
        assert (code, out) == (1, "")
        assert "--mode marginal requires --tokens" in err

    def test_cap_exceeded_is_data_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["gen", "--length", "20", "--vocab", "2", "--seed", "5", "--out", str(tmp_path / "g")],
        )
        assert code == 0
        inst = tmp_path / "g" / "inst_5.json"
        code, _, err = run(capsys, ["oracle", "--input", str(inst), "--mode", "path"])
        assert code == 2
        assert "capped" in err


class TestGenAnalyzeBench:
    def test_gen_decode_oracle_agree(self, capsys, tmp_path):
        out_dir = tmp_path / "gen"
        code, out, _ = run(
            capsys,
            [
                "gen",
                "--length", "8",
                "--vocab", "3",
                "--seed", "42",
                "--count", "3",
                "--transition-concentration", "0.5",
                "--out", str(out_dir),
            ],
        )
        assert code == 0
        listing = json.loads(out)
        assert [f["path"] for f in listing["files"]] == [
            str(out_dir / f"inst_{42 + k}.json") for k in range(3)
        ]
        for entry in listing["files"]:
            meta = json.loads(Path(entry["path"]).read_text())["meta"]["generator"]
            assert meta["transition_concentration"] == 0.5
            code, out, _ = run(
                capsys,
                [
                    "decode",
                    "--strategy", "joint-viterbi",
                    "--beta", "0",
                    "--input", entry["path"],
                ],
            )
            assert code == 0
            decoded = json.loads(out)
            code, out, _ = run(
                capsys, ["oracle", "--input", entry["path"], "--mode", "joint"]
            )
            assert code == 0
            exact = json.loads(out)
            assert decoded["hypothesis"]["joint_logprob"] == pytest.approx(
                math.log(exact["global_best"]["probability"]), abs=1e-9
            )

    def test_analyze_report(self, capsys, tmp_path):
        out_dir = tmp_path / "set"
        run(
            capsys,
            ["gen", "--length", "6", "--vocab", "2", "--seed", "7", "--count", "5",
             "--out", str(out_dir)],
        )
        code, out, _ = run(
            capsys,
            [
                "analyze",
                "--inputs", str(out_dir),
                "--strategies", "lookahead,joint-viterbi",
                "--score", "joint",
                "--beta", "0",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["win_rates"]["lookahead>joint-viterbi"] == 0.0
        assert doc["report"]["optimum_match_rate"]["joint-viterbi"] == 1.0
        assert len(doc["inputs"]["files"]) == 5

    def test_analyze_path_strategy_without_terminal_emission(self, capsys, tmp_path, i4):
        # Every emission at the last position is impossible, so no JOINT length is
        # feasible; a viterbi-only comparison still reads the JOINT optima and succeeds.
        emis = np.array(i4.log_emissions)
        emis[-1, :] = -math.inf
        in_dir = tmp_path / "set"
        in_dir.mkdir()
        save_instance(
            Instance(L=4, V=2, log_transitions=i4.log_transitions, log_emissions=emis),
            in_dir / "a.json",
        )
        code, out, _ = run(
            capsys,
            ["analyze", "--inputs", str(in_dir), "--no-validate", "--strategies", "viterbi"],
        )
        assert code == 0
        assert json.loads(out)["report"]["optimum_match_rate"] == {"viterbi": 1.0}

    def test_gen_into_existing_file_is_data_error(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.write_text("")
        code, out, err = run(
            capsys, ["gen", "--length", "4", "--vocab", "2", "--out", str(target)]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "flag", ["--transition-concentration", "--emission-concentration"]
    )
    def test_non_finite_concentration_is_usage_error(self, capsys, tmp_path, flag, value):
        out_dir = tmp_path / "gen"
        code, out, err = run(
            capsys,
            ["gen", "--length", "4", "--vocab", "2", flag, value, "--out", str(out_dir)],
        )
        assert code == 1
        assert out == ""
        assert flag in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--sparsity", "nan"), ("--sparsity", "1.5"), ("--sparsity", "-0.1"), ("--seed", "-3"),
         ("--count", "0")],
    )
    def test_bad_generator_value_is_usage_error(self, capsys, tmp_path, flag, value):
        out_dir = tmp_path / "gen"
        code, out, err = run(
            capsys,
            ["gen", "--length", "4", "--vocab", "2", flag, value, "--out", str(out_dir)],
        )
        assert code == 1
        assert out == ""
        assert value in err
        assert not out_dir.exists()

    def test_bench_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            ["bench", "--length", "8", "--vocab", "2", "--reps", "3", "--seed", "-1",
             "--strategies", "greedy"],
        )
        assert code == 1
        assert out == ""
        assert "-1" in err

    @pytest.mark.parametrize("command", ["analyze", "bench"])
    def test_duplicate_strategies_are_usage_error(self, capsys, tmp_path, command):
        argv = (
            ["analyze", "--inputs", str(tmp_path)]
            if command == "analyze"
            else ["bench", "--length", "8", "--vocab", "2", "--reps", "3"]
        )
        code, out, err = run(capsys, argv + ["--strategies", "joint-viterbi,greedy,joint-viterbi"])
        assert code == 1
        assert out == ""
        assert "duplicate strategies ['joint-viterbi']" in err

    def test_analyze_empty_dir_is_data_error(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, _ = run(capsys, ["analyze", "--inputs", str(empty)])
        assert code == 2

    def test_analyze_inputs_file_is_data_error(self, capsys, i4_file):
        code, out, err = run(capsys, ["analyze", "--inputs", str(i4_file)])
        assert code == 2
        assert out == ""
        assert err == f"error: {i4_file} is not a directory\n"

    def test_bench_smoke(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "bench",
                "--length", "16",
                "--vocab", "4",
                "--count", "2",
                "--reps", "3",
                "--strategies", "greedy,joint-viterbi",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["timings"]["greedy"]["ratio_vs_baseline"] == 1.0
        assert set(doc["timings"]["joint-viterbi"]) == {"median_seconds", "ratio_vs_baseline"}
        assert doc["timings"]["joint-viterbi"]["median_seconds"] > 0.0
        assert doc["config"]["baseline"] == "greedy"

    def test_bench_has_no_baseline_option(self, capsys):
        code, out, err = run(
            capsys,
            ["bench", "--length", "8", "--vocab", "2", "--reps", "3", "--baseline", "greedy"],
        )
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --baseline" in err

    def test_bench_too_few_reps_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys,
            ["bench", "--length", "8", "--vocab", "2", "--reps", "1",
             "--strategies", "greedy"],
        )
        assert code == 1


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory) -> list[Path]:
    """Generated files, L 1-64, in one directory of dense and one of sparse lattices."""
    root = tmp_path_factory.mktemp("reader")
    for sparsity in (0.0, 0.5):
        directory = root / f"sparsity-{sparsity}"
        directory.mkdir()
        for L in (1, 2, 3, 5, 8, 13, 21, 34, 64):
            config = dagdecode.GeneratorConfig(L=L, V=4, seed=L, sparsity=sparsity)
            save_instance(dagdecode.generate_instance(config), directory / f"L{L}.json")
    return sorted(root.iterdir())


def with_and_without_reader(capsys, monkeypatch, commands) -> tuple[list, list]:
    """Each command's ``(code, stdout, stderr)``, run with the compiled reader and without it.

    Checks that both runs give the same, and returns them with whether the
    reader took each file it was given.
    """
    read_tables, taken = io._read_tables, []

    def spy(text):
        tables = read_tables(text)
        taken.append(tables is not None)
        return tables

    monkeypatch.setattr(io, "_read_tables", spy)
    with_reader = [run(capsys, argv) for argv in commands]
    monkeypatch.setattr(io, "_read_tables", lambda text: None)
    assert [run(capsys, argv) for argv in commands] == with_reader
    return with_reader, taken


class TestReader:
    """The CLI prints the same, byte for byte, and exits the same, with the compiled reader or not."""

    def test_generated_files(self, capsys, monkeypatch, reader_inputs):
        commands = [["analyze", "--inputs", str(d), "--score", "marginal"] for d in reader_inputs]
        for path in (p for d in reader_inputs for p in sorted(d.iterdir())):
            L, file = json.loads(path.read_text())["L"], str(path)
            ends = sorted({1, L})
            commands += [["decode", "--strategy", s, "--input", file] for s in STRATEGIES]
            commands += [["decode", "--strategy", s, "--all-lengths", "--input", file]
                         for s in ("viterbi", "joint-viterbi")]
            commands.append(["score", "--marginal", "--path", ",".join(map(str, ends)),
                             "--tokens", ",".join("0" * len(ends)), "--input", file])
            commands.append(["oracle", "--mode", "joint", "--input", file])
        outcomes, taken = with_and_without_reader(capsys, monkeypatch, commands)
        assert {code for code, _, _ in outcomes} == {0, 2}  # the oracle refuses L > 12
        assert len(taken) == 18 * 8 + 18 and all(taken) == (_cpass.load() is not None)

    def test_corpus_files(self, capsys, monkeypatch, tmp_path):
        commands, refused = [], []
        for k, (name, text, _) in enumerate(reader_corpus()):
            path = tmp_path / f"{k}.json"
            path.write_bytes(text.encode("utf-8", "surrogatepass"))
            commands.append(["decode", "--strategy", "joint-viterbi", "--input", str(path)])
            try:
                reference_parse_instance(text)
            except Exception:
                refused.append(k)
        outcomes, _ = with_and_without_reader(capsys, monkeypatch, commands)
        for k in refused:
            code, out, err = outcomes[k]
            assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


class TestDeterminism:
    def test_decode_output_bit_identical(self, capsys, i4_file):
        argv = ["decode", "--strategy", "joint-viterbi", "--beta", "0.5", "--input", str(i4_file)]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_gen_files_bit_identical(self, capsys, tmp_path):
        args = ["gen", "--length", "6", "--vocab", "3", "--seed", "11", "--count", "2"]
        run(capsys, args + ["--out", str(tmp_path / "a")])
        run(capsys, args + ["--out", str(tmp_path / "b")])
        for k in (11, 12):
            a = (tmp_path / "a" / f"inst_{k}.json").read_bytes()
            b = (tmp_path / "b" / f"inst_{k}.json").read_bytes()
            assert a == b

    def test_gen_files_are_the_reference_text(self, capsys, tmp_path):
        args = ["gen", "--length", "30", "--vocab", "4", "--seed", "3", "--count", "2",
                "--sparsity", "0.3", "--emission-concentration", "0.5", "--out", str(tmp_path)]
        run(capsys, args)
        for k in (3, 4):
            config = dagdecode.GeneratorConfig(L=30, V=4, seed=k, sparsity=0.3,
                                               emission_concentration=0.5)
            expected = reference_serialize_instance(dagdecode.generate_instance(config)) + "\n"
            assert (tmp_path / f"inst_{k}.json").read_bytes() == expected.encode()

    def test_gen_bytes_are_pinned(self, capsys, tmp_path):
        # The sha256 of files written before from_probs kept its log tables uncopied.
        args = ["gen", "--length", "30", "--vocab", "4", "--seed", "3", "--sparsity", "0.3",
                "--emission-concentration", "0.5", "--out", str(tmp_path)]
        assert run(capsys, args)[0] == 0
        digest = hashlib.sha256((tmp_path / "inst_3.json").read_bytes()).hexdigest()
        assert digest == "dd51c7f8364c9bb048abcd18e5e7873201b92ead67cd7a69308264260bf95f6b"


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys):
        assert run_cli([]) == 1
        capsys.readouterr()

    def test_main_exits_with_run_cli_code(self, capsys, monkeypatch, i4_file, keep_sigpipe):
        # In process, as the console script and ``python -m dagdecode.cli`` call it.
        argv = ["decode", "--strategy", "greedy", "--input", str(i4_file)]
        expected = run(capsys, argv)
        monkeypatch.setattr(sys, "argv", ["dagdecode", *argv])
        with pytest.raises(SystemExit) as exited:
            main()
        assert (exited.value.code, *capsys.readouterr()) == expected
        # Not yet imported, so runpy runs the module as __main__ without a warning.
        monkeypatch.delitem(sys.modules, "dagdecode.cli")
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("dagdecode.cli", run_name="__main__")
        assert (exited.value.code, *capsys.readouterr()) == expected

    def test_python_dash_m_runs_cli(self, i4_file):
        proc = run_python(
            "-m", "dagdecode.cli", "decode", "--strategy", "greedy", "--input", str(i4_file)
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["hypothesis"]["path"] == [1, 2, 3, 4]
        proc = run_python(
            "-m", "dagdecode.cli", "score", "--input", str(i4_file),
            "--path", "1,,4", "--tokens", "0,1",
        )
        assert proc.returncode == 1
        assert proc.stdout == ""

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_closed_stdout_pipe_ends_without_a_traceback(self, i4_file):
        # As `dagdecode decode ... | head -c 100` does, with the reader gone before any output.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from dagdecode.cli import main; main()", "decode",
                 "--strategy", "viterbi", "--input", str(i4_file), "--all-lengths"],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=str(Path(dagdecode.__file__).parents[1])),
            )
        finally:
            os.close(write)
        assert proc.stderr == ""
        assert proc.returncode == -signal.SIGPIPE
