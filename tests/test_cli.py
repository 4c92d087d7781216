import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dagdecode
from dagdecode import Instance, TableMode, save_instance, scoring
from dagdecode.cli import run_cli


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

    def test_bad_path_is_data_error(self, capsys, i4_file):
        code, _, _ = run(
            capsys, ["score", "--input", str(i4_file), "--path", "1,3,2,4", "--tokens", "0,0,0,0"]
        )
        assert code == 2

    def test_non_integer_path_is_usage_error(self, capsys, i4_file):
        code, _, _ = run(
            capsys, ["score", "--input", str(i4_file), "--path", "1,x", "--tokens", "0,1"]
        )
        assert code == 1

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

    def test_marginal_requires_tokens(self, capsys, i4_file):
        code, _, _ = run(capsys, ["oracle", "--input", str(i4_file), "--mode", "marginal"])
        assert code == 1

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
        assert doc["timings"]["joint-viterbi"]["mean_seconds"] > 0.0

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
        src = str(Path(dagdecode.__file__).resolve().parents[1])

        def cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "dagdecode.cli", *argv],
                env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
            )

        proc = cli("decode", "--strategy", "greedy", "--input", str(i4_file))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["hypothesis"]["path"] == [1, 2, 3, 4]
        proc = cli("score", "--input", str(i4_file), "--path", "1,,4", "--tokens", "0,1")
        assert proc.returncode == 1
        assert proc.stdout == ""
