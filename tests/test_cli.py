import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import dagdecode
from dagdecode import Instance, TableMode, save_instance, scoring
from dagdecode.cli import run_cli
from dagdecode.decoders import STRATEGIES
from dagdecode.io import instance_to_dict

from conftest import run_python, with_transitions


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
                "--out", str(out_dir),
            ],
        )
        assert code == 0
        listing = json.loads(out)
        assert [f["path"] for f in listing["files"]] == [
            str(out_dir / f"inst_{42 + k}.json") for k in range(3)
        ]
        for entry in listing["files"]:
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
        [("--sparsity", "nan"), ("--sparsity", "1.5"), ("--sparsity", "-0.1"), ("--seed", "-3")],
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


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys):
        assert run_cli([]) == 1
        capsys.readouterr()

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
