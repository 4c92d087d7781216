import math

import numpy as np
import pytest

from dagdecode import (
    DeadEndError,
    InfeasibleLengthError,
    Instance,
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
    viterbi_decode,
)
from dagdecode.logmath import LOG_ZERO

from conftest import random_batch, random_instance


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
    alpha = np.full((L, L), LOG_ZERO)
    psi = np.zeros((L, L), dtype=np.int64)
    for length, value in scores.items():
        alpha[length - 1, L - 1] = value
    return ViterbiTable(alpha=alpha, psi=psi, mode=TableMode.PATH)


class TestViterbiTable:
    def test_i2_path_mode(self, i2):
        table = build_viterbi_table(i2, TableMode.PATH)
        assert table.score(2, 2) == 0.0
        assert table.predecessor(2, 2) == 1
        assert table.score(1, 1) == 0.0
        assert table.score(1, 2) == LOG_ZERO

    def test_i4_path_terminal_scores(self, i4):
        table = build_viterbi_table(i4, TableMode.PATH)
        assert table.score(2, 4) == pytest.approx(math.log(0.1), rel=1e-12)
        assert table.score(3, 4) == pytest.approx(math.log(0.28), rel=1e-12)
        assert table.score(4, 4) == pytest.approx(math.log(0.42), rel=1e-12)

    def test_i4_joint_terminal_score(self, i4):
        table = build_viterbi_table(i4, TableMode.JOINT)
        assert table.score(4, 4) == pytest.approx(math.log(0.127008), rel=1e-12)
        assert table.score(1, 1) == pytest.approx(math.log(0.9), rel=1e-12)

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

    @pytest.mark.parametrize("mode", [TableMode.PATH, TableMode.JOINT])
    def test_invariants_on_random_instances(self, mode):
        for inst in random_batch(8, seed0=300, L=8, V=3, sparsity=0.3):
            table = build_viterbi_table(inst, mode)
            L = inst.L
            assert table.score(1, 1) == (
                0.0 if mode is TableMode.PATH else float(inst.log_emissions[0].max())
            )
            assert all(table.score(1, t) == LOG_ZERO for t in range(2, L + 1))
            for i in range(2, L + 1):
                for t in range(1, L + 1):
                    a = table.score(i, t)
                    if a == LOG_ZERO:
                        continue
                    pred = table.predecessor(i, t)
                    assert pred >= 1
                    # Extending a prefix can only lower its score.
                    assert a <= table.score(i - 1, pred) + 1e-12

    @pytest.mark.parametrize("mode", [TableMode.PATH, TableMode.JOINT])
    def test_matches_oracle_per_length(self, mode):
        enumerate_best = (
            brute_force_best_path if mode is TableMode.PATH else brute_force_best_joint
        )
        for inst in random_batch(12, seed0=420, L=7, V=3, sparsity=0.25):
            table = build_viterbi_table(inst, mode)
            best = enumerate_best(inst).best_per_length
            for length in table.feasible_lengths():
                assert math.exp(table.score(length, inst.L)) == pytest.approx(
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
                    table.score(sel.chosen_M, inst.L), abs=1e-9
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
                    ptable.score(length, inst.L), abs=1e-9
                )
            jtable = build_viterbi_table(inst, TableMode.JOINT)
            for length in jtable.feasible_lengths():
                path = backtrace(jtable, length)
                hyp = argmax_hypothesis(inst, path)
                assert joint_log_prob(inst, path, hyp.tokens) == pytest.approx(
                    jtable.score(length, inst.L), abs=1e-9
                )
