import hashlib
import math

import numpy as np
import pytest

from dagdecode import (
    DeadEndError,
    InfeasibleLengthError,
    Instance,
    PathShapeError,
    TableMode,
    UnreachableTerminalError,
    ViterbiTable,
    argmax_hypothesis,
    backtrace,
    brute_force_best_joint,
    brute_force_best_path,
    build_viterbi_table,
    decode,
    decode_all_lengths,
    greedy_decode,
    joint_log_prob,
    joint_viterbi_decode,
    lookahead_decode,
    path_log_prob,
    select_length,
    table_decode,
    viterbi_decode,
)
from dagdecode.decoders import TABLE_MODES
from dagdecode.logmath import LOG_ZERO

from conftest import (
    I4_EMISSIONS,
    I4_TRANSITIONS,
    build_peak,
    funnel,
    hypothesis_fields,
    random_batch,
    random_instance,
    run_python,
    with_transitions,
)


class TestGreedy:
    def test_i2(self, i2):
        hyp = greedy_decode(i2)
        assert hyp.path.positions == (1, 2)
        assert hyp.tokens == (0, 1)
        assert hyp.joint_logprob == pytest.approx(math.log(0.72), rel=1e-12)

    def test_i4_follows_hop_argmaxes(self, i4):
        hyp = greedy_decode(i4)
        assert hyp.path.positions == (1, 2, 3, 4)
        assert hyp.tokens == (0, 1, 0, 1)

    def test_prefers_larger_hop_probability(self):
        inst = Instance.from_probs(
            [[0.0, 0.4, 0.6], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
            [[1.0, 0.0]] * 3,
        )
        assert greedy_decode(inst).path.positions == (1, 3)

    def test_dead_end_raises(self, i4):
        trans = np.array(i4.log_transitions)
        trans.setflags(write=True)
        trans[1, :] = LOG_ZERO
        broken = Instance(L=4, V=2, log_transitions=trans, log_emissions=i4.log_emissions)
        with pytest.raises(DeadEndError):
            greedy_decode(broken)

    def test_walks_pass_over_nan_on_the_diagonal(self):
        # An instance file cannot hold NaN, so this calls the library, in a
        # subprocess so that a walk which never returns fails instead of stalling.
        script = (
            "import numpy as np\n"
            "from dagdecode import Instance, greedy_decode, lookahead_decode\n"
            f"inst = Instance.from_probs({I4_TRANSITIONS!r}, {I4_EMISSIONS!r})\n"
            "trans = np.array(inst.log_transitions)\n"
            "trans[1, 1] = np.nan\n"
            "inst = Instance(L=4, V=2, log_transitions=trans, log_emissions=inst.log_emissions)\n"
            "print(greedy_decode(inst).path.positions, lookahead_decode(inst).path.positions)\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "(1, 2, 3, 4) (1, 2, 3, 4)\n"

    def test_single_position(self):
        inst = Instance.from_probs([[0.0]], [[0.2, 0.8]])
        hyp = greedy_decode(inst)
        assert hyp.path.positions == (1,)
        assert hyp.tokens == (1,)
        assert hyp.path_logprob == 0.0


class TestLookahead:
    def test_i2(self, i2):
        hyp = lookahead_decode(i2)
        assert hyp.path.positions == (1, 2)
        assert hyp.tokens == (0, 1)

    def test_i4_weighs_transition_times_emission(self, i4):
        hyp = lookahead_decode(i4)
        assert hyp.path.positions == (1, 2, 3, 4)
        assert hyp.tokens == (0, 1, 0, 1)

    def test_diverges_from_greedy_somewhere(self):
        # Search seeds for a lattice where the best hop and the best
        # hop-times-emission disagree; assert the divergence exists.
        found = False
        for seed in range(200):
            inst = random_instance(seed, L=6, V=3, emission_concentration=0.3)
            if greedy_decode(inst).path.positions != lookahead_decode(inst).path.positions:
                found = True
                break
        assert found, "no divergence witness in 200 seeds"


def _table_from_terminal_scores(scores: dict[int, float], L: int) -> ViterbiTable:
    alpha = np.full(L, LOG_ZERO)
    psi = np.zeros((L, L), dtype=np.int64)
    for length, value in scores.items():
        alpha[length - 1] = value
    return ViterbiTable(alpha=alpha, psi=psi)


class TestViterbiTable:
    def test_i2_path_mode(self, i2):
        table = build_viterbi_table(i2, TableMode.PATH)
        assert table.alpha[1] == 0.0
        assert table.predecessor(2, 2) == 1
        assert table.alpha[0] == LOG_ZERO

    def test_i4_path_terminal_scores(self, i4):
        table = build_viterbi_table(i4, TableMode.PATH)
        assert table.alpha[1] == pytest.approx(math.log(0.1), rel=1e-12)
        assert table.alpha[2] == pytest.approx(math.log(0.28), rel=1e-12)
        assert table.alpha[3] == pytest.approx(math.log(0.42), rel=1e-12)

    def test_i4_joint_terminal_score(self, i4):
        table = build_viterbi_table(i4, TableMode.JOINT)
        assert table.alpha[3] == pytest.approx(math.log(0.127008), rel=1e-12)

    def test_backpointer_tie_breaks_to_smallest_position(self):
        # Two equal-probability predecessors for the terminal hop.
        inst = Instance.from_probs(
            [
                [0.0, 0.5, 0.5, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 0.0],
            ],
            [[1.0, 0.0]] * 4,
        )
        table = build_viterbi_table(inst, TableMode.PATH)
        assert table.predecessor(3, 4) == 2

    @pytest.mark.parametrize(
        "L, dtype, digest",
        [
            (200, np.uint8, "d465771816b87d7133477bab34f57684cea06531d2824c31846f11cfa1a01c61"),
            (300, np.uint16, "25728921dd25af29739e078eb82d82de37eb37f49688c1d42328fd82cc4ef323"),
        ],
        ids=["L200", "L300"],
    )
    def test_backpointers_in_narrowest_dtype(self, L, dtype, digest):
        # The digest covers every backtraced path of both tables as int64
        # backpointers gave them.
        inst = random_instance(7, L=L, V=3, sparsity=0.3)
        paths = hashlib.sha256()
        for mode in (TableMode.PATH, TableMode.JOINT):
            table = build_viterbi_table(inst, mode)
            assert table.psi.dtype == dtype
            assert isinstance(table.predecessor(L, L), int)
            for length in table.feasible_lengths():
                paths.update(repr(backtrace(table, length).positions).encode())
        assert paths.hexdigest() == digest

    @pytest.mark.parametrize("mode", [TableMode.PATH, TableMode.JOINT])
    def test_build_peak_within_21_bytes_per_cell(self, mode):
        # psi and the weights are 10 bytes per cell; one pass's scores may be
        # alive at a time, and no L x L score matrix at all.
        L = 256
        assert build_peak(random_instance(5, L=L, V=8), mode) <= 21 * L * L

    def test_joint_build_peaks_no_higher_than_path_build(self):
        # Folding the emissions into the one transposed weights array keeps
        # the JOINT build's temporaries to the PATH build's.
        inst = random_instance(5, L=256, V=8)
        peaks = {mode: build_peak(inst, mode) for mode in (TableMode.PATH, TableMode.JOINT)}
        assert peaks[TableMode.JOINT] <= 1.02 * peaks[TableMode.PATH]

    @pytest.mark.parametrize("mode", [TableMode.PATH, TableMode.JOINT])
    def test_kept_bytes_are_backpointers_and_one_score_per_length(self, mode):
        L = 256
        table = build_viterbi_table(random_instance(5, L=L, V=8), mode)
        assert table.alpha.shape == (L,)
        assert table.alpha.nbytes + table.psi.nbytes <= 2 * L * L + 8 * L

    @pytest.mark.parametrize("mode", [TableMode.PATH, TableMode.JOINT])
    def test_backtraces_rescore_to_alpha(self, mode):
        for inst in random_batch(8, seed0=300, L=8, V=3, sparsity=0.3):
            table = build_viterbi_table(inst, mode)
            L = inst.L
            feasible = table.feasible_lengths()
            for length in feasible:
                path = backtrace(table, length)
                positions = path.positions
                assert len(positions) == length
                assert positions[0] == 1 and positions[-1] == L
                assert all(a < b for a, b in zip(positions, positions[1:]))
                score = path_log_prob(inst, path)
                if mode is TableMode.JOINT:
                    pos = np.asarray(positions) - 1
                    score += inst.log_emissions[pos].max(axis=1).sum()
                assert score == pytest.approx(table.alpha[length - 1], abs=1e-12)
            for length in sorted(set(range(L + 2)) - set(feasible)):
                with pytest.raises(InfeasibleLengthError):
                    backtrace(table, length)

    @pytest.mark.parametrize("mode", [TableMode.PATH, TableMode.JOINT])
    def test_matches_oracle_per_length(self, mode):
        enumerate_best = (
            brute_force_best_path if mode is TableMode.PATH else brute_force_best_joint
        )
        for inst in random_batch(12, seed0=420, L=7, V=3, sparsity=0.25):
            table = build_viterbi_table(inst, mode)
            best = enumerate_best(inst).best_per_length
            for length in table.feasible_lengths():
                assert math.exp(table.alpha[length - 1]) == pytest.approx(
                    best[length][1], rel=1e-12
                )


class TestSelectLength:
    def test_i4_beta_zero_is_plain_argmax(self, i4):
        table = build_viterbi_table(i4, TableMode.PATH)
        sel = select_length(table, 0.0)
        assert sel.chosen_M == 4
        assert sel.per_length_scores[2][0] == pytest.approx(math.log(0.1), rel=1e-12)
        assert sel.per_length_scores[2][1] == sel.per_length_scores[2][0]

    def test_i2_only_length(self, i2):
        table = build_viterbi_table(i2, TableMode.PATH)
        for beta in (0.0, 1.0, 5.0):
            assert select_length(table, beta).chosen_M == 2

    def test_large_beta_flips_choice(self):
        # log 0.9 / 2^5 = -0.003293 loses to log 0.8 / 3^5 = -0.000918.
        table = _table_from_terminal_scores({2: math.log(0.9), 3: math.log(0.8)}, L=4)
        assert select_length(table, 0.0).chosen_M == 2
        assert select_length(table, 5.0).chosen_M == 3
        got = select_length(table, 5.0).per_length_scores[3][1]
        assert got == pytest.approx(math.log(0.8) / 3**5, rel=1e-12)

    def test_tie_prefers_larger_length(self):
        table = _table_from_terminal_scores({2: math.log(0.5), 4: math.log(0.5)}, L=5)
        assert select_length(table, 0.0).chosen_M == 4

    def test_certain_score_ignores_beta(self):
        table = _table_from_terminal_scores({2: 0.0, 3: math.log(0.9)}, L=4)
        for beta in (0.0, 1.0, 10.0):
            assert select_length(table, beta).chosen_M == 2

    def test_unreachable_terminal(self):
        table = _table_from_terminal_scores({}, L=3)
        with pytest.raises(UnreachableTerminalError):
            select_length(table, 1.0)

    def test_negative_beta_rejected(self, i2):
        table = build_viterbi_table(i2, TableMode.PATH)
        with pytest.raises(ValueError):
            select_length(table, -0.5)


class TestBacktrace:
    def test_i2(self, i2):
        table = build_viterbi_table(i2, TableMode.PATH)
        assert backtrace(table, 2).positions == (1, 2)

    def test_i4_lengths(self, i4):
        table = build_viterbi_table(i4, TableMode.PATH)
        assert backtrace(table, 3).positions == (1, 2, 4)
        assert backtrace(table, 4).positions == (1, 2, 3, 4)

    def test_infeasible_length(self, i4):
        table = build_viterbi_table(i4, TableMode.PATH)
        with pytest.raises(InfeasibleLengthError):
            backtrace(table, 1)
        with pytest.raises(InfeasibleLengthError):
            backtrace(table, 5)


class TestArgmaxHypothesis:
    @pytest.mark.parametrize("path", [(1, 99), (1, 10**30), (1, 3, 2, 4), (1, 2)])
    def test_bad_path_rejected_before_indexing(self, i4, path):
        with pytest.raises(PathShapeError):
            argmax_hypothesis(i4, path)

    def test_joint_is_path_plus_emission(self, i4):
        hyp = argmax_hypothesis(i4, [1, 2, 4])
        assert hyp.path.positions == (1, 2, 4)
        assert hyp.joint_logprob == hyp.path_logprob + hyp.emission_logprob
        assert hyp.joint_logprob == joint_log_prob(i4, (1, 2, 4), hyp.tokens)


class TestViterbiDecode:
    def test_i2(self, i2):
        hyp = viterbi_decode(i2, beta=1.0)
        assert hyp.path.positions == (1, 2)
        assert hyp.tokens == (0, 1)

    def test_i4_beta_zero(self, i4):
        hyp = viterbi_decode(i4, beta=0.0)
        assert hyp.path.positions == (1, 2, 3, 4)
        assert hyp.tokens == (0, 1, 0, 1)
        assert hyp.path_logprob == pytest.approx(math.log(0.42), rel=1e-12)

    def test_path_score_is_per_length_optimal(self):
        for inst in random_batch(10, seed0=500, L=8, V=2):
            hyp = viterbi_decode(inst, beta=0.0)
            best = brute_force_best_path(inst).best_per_length[hyp.length][1]
            assert math.exp(hyp.path_logprob) == pytest.approx(best, rel=1e-12)


class TestJointViterbiDecode:
    def test_i2(self, i2):
        assert joint_viterbi_decode(i2, beta=1.0).joint_logprob == pytest.approx(
            math.log(0.72), rel=1e-12
        )

    def test_i4_beta_zero(self, i4):
        hyp = joint_viterbi_decode(i4, beta=0.0)
        assert hyp.path.positions == (1, 2, 3, 4)
        assert hyp.tokens == (0, 1, 0, 1)
        assert hyp.joint_logprob == pytest.approx(math.log(0.127008), rel=1e-12)

    def test_rescored_joint_equals_table_score(self):
        for inst in random_batch(10, seed0=550, L=8, V=3, sparsity=0.2):
            table = build_viterbi_table(inst, TableMode.JOINT)
            for beta in (0.0, 1.0):
                sel = select_length(table, beta)
                hyp = joint_viterbi_decode(inst, beta=beta)
                assert hyp.length == sel.chosen_M
                assert hyp.joint_logprob == pytest.approx(
                    table.alpha[sel.chosen_M - 1], abs=1e-9
                )

    def test_dominates_all_other_strategies(self):
        strict_jv = strict_vit = 0
        batch = random_batch(60, seed0=600, L=6, V=3)
        for inst in batch:
            jv = joint_viterbi_decode(inst, beta=0.0).joint_logprob
            vit = viterbi_decode(inst, beta=0.0)
            greedy = greedy_decode(inst)
            look = lookahead_decode(inst)
            assert jv >= look.joint_logprob
            assert jv >= greedy.joint_logprob
            assert jv >= viterbi_decode(inst, beta=0.0).joint_logprob
            assert vit.path_logprob >= greedy.path_logprob
            strict_jv += jv > look.joint_logprob
            strict_vit += vit.path_logprob > greedy.path_logprob
        assert strict_jv >= 1
        assert strict_vit >= 1


class TestDecodeAllLengths:
    def test_i2(self, i2):
        assert len(decode_all_lengths(i2, build_viterbi_table(i2, TableMode.PATH))) == 1

    def test_i4_path_scores(self, i4):
        hyps = decode_all_lengths(i4, build_viterbi_table(i4, TableMode.PATH))
        assert [h.length for h in hyps] == [2, 3, 4]
        assert [h.path_logprob for h in hyps] == pytest.approx(
            [math.log(0.1), math.log(0.28), math.log(0.42)], rel=1e-12
        )

    def test_i4_joint_length_three(self, i4):
        table = build_viterbi_table(i4, TableMode.JOINT)
        hyps = {h.length: h for h in decode_all_lengths(i4, table)}
        assert hyps[3].path.positions == (1, 2, 4)
        assert hyps[3].joint_logprob == pytest.approx(math.log(0.10584), rel=1e-12)

    def test_skips_infeasible_lengths(self):
        # Forced chain 1 -> 4: only one feasible length on this support.
        inst = Instance.from_probs(
            [
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 0.0],
            ],
            [[1.0, 0.0]] * 4,
        )
        hyps = decode_all_lengths(inst, build_viterbi_table(inst, TableMode.PATH))
        assert [h.length for h in hyps] == [2]


class TestDeterminismAndDispatch:
    def test_identical_inputs_identical_outputs(self):
        inst_a = random_instance(700, L=8, V=4)
        inst_b = random_instance(700, L=8, V=4)
        for strategy in ("greedy", "lookahead", "viterbi", "joint-viterbi"):
            assert decode(inst_a, strategy, beta=1.0) == decode(inst_b, strategy, beta=1.0)

    def test_unknown_strategy(self, i2):
        with pytest.raises(ValueError):
            decode(i2, "beam")

    def test_backtraced_scores_consistent_with_scoring(self):
        for inst in random_batch(6, seed0=800, L=7, V=3):
            ptable = build_viterbi_table(inst, TableMode.PATH)
            for length in ptable.feasible_lengths():
                path = backtrace(ptable, length)
                assert path_log_prob(inst, path) == pytest.approx(
                    ptable.alpha[length - 1], abs=1e-9
                )
            jtable = build_viterbi_table(inst, TableMode.JOINT)
            for length in jtable.feasible_lengths():
                path = backtrace(jtable, length)
                hyp = argmax_hypothesis(inst, path)
                assert joint_log_prob(inst, path, hyp.tokens) == pytest.approx(
                    jtable.alpha[length - 1], abs=1e-9
                )


def _outcome(call):
    """The hypothesis' fields, or the type and message of what the call raised."""
    try:
        return hypothesis_fields(call())
    except Exception as exc:
        return type(exc), str(exc)


def _unvalidated_i4(case: str) -> Instance:
    i4 = Instance.from_probs(I4_TRANSITIONS, I4_EMISSIONS)
    if case == "nan-emission":
        emis = i4.log_emissions.copy()
        emis[2, 0] = math.nan
        return Instance(L=4, V=2, log_transitions=i4.log_transitions, log_emissions=emis)
    cells = {
        "nan": {(0, 1): math.nan},
        "posinf": {(1, 3): math.inf},
        # Above every later hop, but no path stays at 3 or goes from 4 back to 3.
        "diagonal": {(2, 2): 1.0},
        "below-diagonal": {(3, 2): 5.0},
        "unreachable": {(t, 3): LOG_ZERO for t in range(4)},
    }[case]
    return with_transitions(i4, cells)


STRATEGY_MODES = sorted(TABLE_MODES.items())


class TestLongestPathRoute:
    """At beta 0 and 1, decode finds the table's hypothesis without building the table."""

    @staticmethod
    def assert_agrees_with_table(inst):
        for strategy, mode in STRATEGY_MODES:
            for beta in (0.0, 1.0):
                expected = hypothesis_fields(table_decode(inst, mode, beta)[0])
                assert hypothesis_fields(decode(inst, strategy, beta)) == expected

    @pytest.mark.parametrize("L", [256, 512])
    def test_agrees_with_table_on_large_lattices(self, L):
        self.assert_agrees_with_table(random_instance(L, L=L, V=8))
        self.assert_agrees_with_table(random_instance(L + 1, L=L, V=8, sparsity=0.3))

    def test_agrees_with_table_on_suite(self, suite_500):
        for inst in suite_500:
            self.assert_agrees_with_table(inst)

    @pytest.mark.parametrize("strategy", sorted(TABLE_MODES))
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_builds_no_table(self, table_builds, strategy, beta):
        decode(random_instance(64, L=64, V=8), strategy, beta)
        assert table_builds == []

    @pytest.mark.parametrize("strategy", sorted(TABLE_MODES))
    def test_other_beta_builds_the_table(self, table_builds, strategy):
        decode(random_instance(64, L=64, V=8), strategy, 0.5)
        assert table_builds == [TABLE_MODES[strategy]]

    @pytest.mark.parametrize("strategy", sorted(TABLE_MODES))
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_exact_tie_builds_the_table(self, table_builds, strategy, beta):
        # Every best path has an equal-scoring twin, so no pass can certify it.
        inst = funnel(random_instance(11, L=8, V=3), 3, twin_rows=True)
        hyp = decode(inst, strategy, beta)
        assert table_builds == [TABLE_MODES[strategy]]
        expected = table_decode(inst, TABLE_MODES[strategy], beta)[0]
        assert hypothesis_fields(hyp) == hypothesis_fields(expected)

    @pytest.mark.parametrize(
        "case", ["nan", "nan-emission", "posinf", "diagonal", "below-diagonal", "unreachable"]
    )
    @pytest.mark.parametrize("strategy", sorted(TABLE_MODES))
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_unvalidated_input_decodes_as_table(self, case, strategy, beta):
        inst = _unvalidated_i4(case)
        mode = TABLE_MODES[strategy]
        assert _outcome(lambda: decode(inst, strategy, beta)) == _outcome(
            lambda: table_decode(inst, mode, beta)[0]
        )

    @pytest.mark.parametrize("case", ["diagonal", "below-diagonal"])
    @pytest.mark.parametrize("strategy", sorted(TABLE_MODES))
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_entries_not_later_build_no_table(self, table_builds, case, strategy, beta):
        # The passes read only later hops, as the table does, so nothing falls back.
        decode(_unvalidated_i4(case), strategy, beta)
        assert table_builds == []

    @pytest.mark.parametrize("beta", [math.nan, -1.0])
    @pytest.mark.parametrize("strategy", sorted(TABLE_MODES))
    def test_bad_beta_fails_as_table(self, i4, strategy, beta):
        mode = TABLE_MODES[strategy]
        expected = _outcome(lambda: table_decode(i4, mode, beta)[0])
        assert expected[0] is ValueError
        assert _outcome(lambda: decode(i4, strategy, beta)) == expected
