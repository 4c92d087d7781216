import hashlib
import math
import os
import re
import shutil
import stat
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dagdecode import (
    DeadEndError,
    InfeasibleLengthError,
    Instance,
    InstanceValidationError,
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
    save_instance,
    select_length,
    table_decode,
    viterbi_decode,
)
from dagdecode import _cpass, decoders
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

    def test_nan_on_the_diagonal_never_reaches_a_walk(self, i4):
        # The instance refuses it, so no walk has to step over it.
        trans = np.array(i4.log_transitions)
        trans[1, 1] = np.nan
        with pytest.raises(InstanceValidationError, match=r"log_transitions\[1\]\[1\] is NaN"):
            Instance(L=4, V=2, log_transitions=trans, log_emissions=i4.log_emissions)

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
    """The hypothesis' fields, or the type and message of what the call raised.

    A warning raised as an error is not an outcome: it fails the test.
    """
    try:
        return hypothesis_fields(call())
    except Warning:
        raise
    except Exception as exc:
        return type(exc), str(exc)


_TRANSITION_CELLS = {
    "nan": {(0, 1): math.nan},
    "nan-last-hop": {(1, 3): math.nan},
    "posinf": {(1, 3): math.inf},
    # Above every later hop, but no path stays at 3 or goes from 4 back to 3.
    "diagonal": {(2, 2): 1.0},
    "below-diagonal": {(3, 2): 5.0},
    "nan-diagonal": {(2, 2): math.nan},
    "posinf-below-diagonal": {(2, 1): math.inf},
    "unreachable": {(t, 3): LOG_ZERO for t in range(4)},
    "posinf-both": {(1, 3): math.inf},
    # Finite, but the JOINT weight of the hop 2 -> 4 overflows to +inf; in
    # "overflow-unreachable" no path reaches 2, so a pass would add +inf to -inf.
    "overflow": {(1, 3): 1e308},
    "overflow-unreachable": {(0, 1): LOG_ZERO, (0, 2): LOG_ZERO, (1, 3): 1e308},
}
_EMISSION_CELLS = {
    "nan-emission": {(2, 0): math.nan},
    "posinf-emission": {(2, 1): math.inf},
    "posinf-both": {(2, 1): math.inf},
    "overflow": {(3, 0): 1e308},
    "overflow-unreachable": {(3, 0): 1e308},
}
#: The cell each case with a NaN or +inf names when the instance refuses it.
_REFUSED_CELL = {
    "nan": "log_transitions[0][1] is NaN",
    "nan-last-hop": "log_transitions[1][3] is NaN",
    "posinf": "log_transitions[1][3] is +inf",
    "nan-diagonal": "log_transitions[2][2] is NaN",
    "posinf-below-diagonal": "log_transitions[2][1] is +inf",
    "posinf-both": "log_transitions[1][3] is +inf",
    "nan-emission": "log_emissions[2][0] is NaN",
    "posinf-emission": "log_emissions[2][1] is +inf",
}


def _unvalidated_i4(case: str) -> Instance:
    """I4, not validated, with the case's 0-based log-transition and log-emission cells set."""
    assert case in _TRANSITION_CELLS or case in _EMISSION_CELLS
    i4 = Instance.from_probs(I4_TRANSITIONS, I4_EMISSIONS)
    trans, emis = i4.log_transitions.copy(), i4.log_emissions.copy()
    for table, cells in ((trans, _TRANSITION_CELLS), (emis, _EMISSION_CELLS)):
        for cell, value in cells.get(case, {}).items():
            table[cell] = value
    return Instance(L=4, V=2, log_transitions=trans, log_emissions=emis)


STRATEGY_MODES = sorted(TABLE_MODES.items())


def _compiled_or_skip():
    """The compiled forward pass; it must load wherever ``cc`` is found."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    compiled = _cpass.load()
    assert compiled is not None
    return compiled


@pytest.fixture(params=["compiled", "numpy"])
def forward_pass(request, monkeypatch):
    """Run the test once with each forward pass behind ``decoders._longest_path``."""
    if request.param == "compiled":
        monkeypatch.setattr(decoders, "_forward", _compiled_or_skip())
    else:
        monkeypatch.setattr(decoders, "_forward", decoders._numpy_forward)
    return request.param


class TestLongestPathRoute:
    """At beta 0 and 1, decode finds the table's hypothesis without building the table."""

    @staticmethod
    def assert_agrees_with_table(inst):
        for strategy, mode in STRATEGY_MODES:
            for beta in (0.0, 1.0):
                expected = hypothesis_fields(table_decode(inst, mode, beta)[0])
                assert hypothesis_fields(decode(inst, strategy, beta)) == expected

    @pytest.mark.parametrize("L", [256, 512])
    def test_agrees_with_table_on_large_lattices(self, forward_pass, L):
        self.assert_agrees_with_table(random_instance(L, L=L, V=8))
        self.assert_agrees_with_table(random_instance(L + 1, L=L, V=8, sparsity=0.3))

    def test_agrees_with_table_on_suite(self, forward_pass, suite_500):
        for inst in suite_500:
            self.assert_agrees_with_table(inst)

    @pytest.mark.parametrize("twin_rows", [True, False])
    def test_agrees_with_table_on_funnels(self, forward_pass, twin_rows):
        # Forced ties in predecessor (twin rows) or in length (a free extra hop).
        for seed in range(8):
            inst = random_instance(seed, L=8 + seed, V=3)
            self.assert_agrees_with_table(funnel(inst, 1 + seed % 4, twin_rows))

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
    def test_exact_tie_builds_the_table(self, forward_pass, table_builds, strategy, beta):
        # Every best path has an equal-scoring twin, so no pass can certify it.
        inst = funnel(random_instance(11, L=8, V=3), 3, twin_rows=True)
        hyp = decode(inst, strategy, beta)
        assert table_builds == [TABLE_MODES[strategy]]
        expected = table_decode(inst, TABLE_MODES[strategy], beta)[0]
        assert hypothesis_fields(hyp) == hypothesis_fields(expected)

    @pytest.mark.parametrize("case", sorted({*_TRANSITION_CELLS, *_EMISSION_CELLS}))
    @pytest.mark.parametrize("strategy", sorted(TABLE_MODES))
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_unvalidated_input_decodes_as_table(self, case, strategy, beta):
        mode = TABLE_MODES[strategy]
        # Only the overflow cases overflow (then meet -inf), on purpose; no other may warn.
        quiet = "ignore" if case.startswith("overflow") else "warn"
        with np.errstate(over=quiet, invalid=quiet):
            expected = _outcome(lambda: table_decode(_unvalidated_i4(case), mode, beta)[0])
            assert _outcome(lambda: decode(_unvalidated_i4(case), strategy, beta)) == expected
        if case in _REFUSED_CELL:
            # Refused before any decoder runs: paths exist, so no decoder may
            # answer, or call the terminal unreachable.
            message = f"instance failed validation: {_REFUSED_CELL[case]}"
            assert expected == (InstanceValidationError, message)

    @pytest.mark.parametrize(
        "case", ["diagonal", "below-diagonal", "nan-diagonal", "posinf-below-diagonal"]
    )
    @pytest.mark.parametrize("strategy", sorted(TABLE_MODES))
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_entries_not_later_build_no_table(self, table_builds, case, strategy, beta):
        # The passes read only later hops, as the table does, so nothing falls
        # back; a NaN or +inf there is refused before any decoder runs.
        if case in _REFUSED_CELL:
            with pytest.raises(InstanceValidationError, match=re.escape(_REFUSED_CELL[case])):
                decode(_unvalidated_i4(case), strategy, beta)
        else:
            decode(_unvalidated_i4(case), strategy, beta)
        assert table_builds == []

    @pytest.mark.parametrize(
        "case, strategy, cell",
        [
            ("posinf", "viterbi", "log_transitions[1][3]"),
            ("posinf", "joint-viterbi", "log_transitions[1][3]"),
            ("posinf-emission", "joint-viterbi", "log_emissions[2][1]"),
            ("posinf-both", "joint-viterbi", "log_transitions[1][3]"),
        ],
    )
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_posinf_raises_naming_its_cell(self, case, strategy, cell, beta):
        # Paths exist, so this is bad input, not an unreachable terminal; the
        # instance refuses it before either decoder runs.
        expected = (InstanceValidationError, f"instance failed validation: {cell} is +inf")
        mode = TABLE_MODES[strategy]
        assert _outcome(lambda: table_decode(_unvalidated_i4(case), mode, beta)[0]) == expected
        assert _outcome(lambda: decode(_unvalidated_i4(case), strategy, beta)) == expected

    @pytest.mark.parametrize("beta", [math.nan, -1.0])
    @pytest.mark.parametrize("strategy", sorted(TABLE_MODES))
    def test_bad_beta_fails_as_table(self, i4, strategy, beta):
        mode = TABLE_MODES[strategy]
        expected = _outcome(lambda: table_decode(i4, mode, beta)[0])
        assert expected[0] is ValueError
        assert _outcome(lambda: decode(i4, strategy, beta)) == expected


@pytest.fixture
def fresh_cpass(monkeypatch, tmp_path):
    """Reset ``_cpass`` to a new process's state, with an empty cache; its cache directory."""
    monkeypatch.setattr(_cpass, "_pass", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "dagdecode"


def _huge_weights(L: int, seed: int) -> np.ndarray:
    """Later hops of 1e307 and more, some -inf: long paths overflow to +inf, then NaN."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(1e307, 1.7e308, (L, L))
    weights[rng.random((L, L)) < 0.2] = LOG_ZERO
    return np.where(np.tri(L, dtype=bool), LOG_ZERO, weights)


class TestForwardPasses:
    """The compiled forward pass fills what the numpy pass fills; without it, numpy runs."""

    def test_compiles_where_a_compiler_is_found(self):
        _compiled_or_skip()

    @pytest.mark.parametrize("mode", [TableMode.PATH, TableMode.JOINT])
    def test_fill_identical_bytes(self, mode):
        compiled = _compiled_or_skip()
        cases = []
        for seed in range(12):
            L = (2, 7, 64, 256)[seed % 4]
            inst = random_instance(seed, L=L, V=8, sparsity=0.5 if seed % 3 == 0 else 0.0)
            if seed % 2 and L > 2:  # a position no path reaches, so its row is skipped
                inst = with_transitions(inst, {(t, L // 2): LOG_ZERO for t in range(L)})
            weights, start = inst.log_transitions, 0.0
            if mode is TableMode.JOINT:
                best = inst.log_emissions.max(axis=1)
                weights, start = weights + best, best[0]
            cases.append((weights, start))
        cases += [(_huge_weights(L, L), 0.0) for L in (3, 17, 64)]
        for weights, start in cases:
            for lam in (0.0, -2.5, 0.37, 1.9, -1e308):
                f = {}
                for name, fill in (("numpy", decoders._numpy_forward), ("compiled", compiled)):
                    f[name] = np.full(len(weights), LOG_ZERO)
                    f[name][0] = start
                    with np.errstate(over="ignore", invalid="ignore"):
                        fill(weights, f[name], lam)
                assert f["compiled"].tobytes() == f["numpy"].tobytes()

    @pytest.mark.parametrize("L", [17, 64])
    def test_overflow_gives_no_path(self, forward_pass, L):
        with np.errstate(over="ignore", invalid="ignore"):
            assert decoders._longest_path(_huge_weights(L, L), 0.0, 0.0) == (None, False)

    @pytest.mark.parametrize("failure", ["no-compiler", "compile-error", "unwritable-cache"])
    def test_falls_back_to_numpy_once(self, fresh_cpass, monkeypatch, tmp_path, failure):
        if failure == "no-compiler":
            monkeypatch.setattr(shutil, "which", lambda name: None)
        elif failure == "compile-error":
            monkeypatch.setattr(_cpass, "SOURCE", "this is not C")
        else:
            blocker = tmp_path / "not-a-directory"
            blocker.write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        attempts = []
        library = _cpass._library
        monkeypatch.setattr(_cpass, "_library", lambda: attempts.append(1) or library())
        for seed in range(4):
            inst = random_instance(seed, L=32, V=4, sparsity=0.3 if seed % 2 else 0.0)
            for strategy, mode in STRATEGY_MODES:
                for beta in (0.0, 1.0):
                    expected = hypothesis_fields(table_decode(inst, mode, beta)[0])
                    assert hypothesis_fields(decode(inst, strategy, beta)) == expected
        assert _cpass.load() is None
        assert attempts == [1]  # no retry in the same process
        assert not fresh_cpass.exists() or not any(fresh_cpass.glob("*.tmp"))

    def test_concurrent_first_calls_compile_once(self, fresh_cpass, monkeypatch):
        attempts = []
        library = _cpass._library
        monkeypatch.setattr(_cpass, "_library", lambda: attempts.append(1) or library())
        with ThreadPoolExecutor(max_workers=6) as pool:
            loaded = [f.result(timeout=60) for f in [pool.submit(_cpass.load) for _ in range(6)]]
        assert attempts == [1]
        assert all(fn is loaded[0] for fn in loaded)

    def test_cache_holds_one_private_complete_library(self, fresh_cpass, monkeypatch):
        _compiled_or_skip()
        assert stat.S_IMODE(fresh_cpass.stat().st_mode) == 0o700
        [lib] = fresh_cpass.iterdir()
        assert lib.suffix == ".so"
        # A new process loads it without a compiler.
        monkeypatch.setattr(_cpass, "_pass", None)
        monkeypatch.setattr(shutil, "which", lambda name: None)
        assert _cpass.load() is not None

    def test_refuses_a_cache_others_can_write(self, fresh_cpass):
        fresh_cpass.mkdir(parents=True)
        fresh_cpass.chmod(0o777)
        assert _cpass.load() is None
        assert list(fresh_cpass.iterdir()) == []

    def test_cache_key_loads_no_openssl(self, tmp_path, i4):
        # In a fresh process: hashlib would load _hashlib (OpenSSL) for the key.
        _compiled_or_skip()
        path = tmp_path / "I4.json"
        save_instance(i4, path)
        code = (
            "import os, sys, dagdecode\n"
            "from dagdecode import _cpass\n"
            "inst = dagdecode.parse_instance(open(sys.argv[1]).read())\n"
            "dagdecode.decode(inst, 'joint-viterbi', 1.0)\n"
            "assert _cpass.load() is not None\n"
            "print('_hashlib' in sys.modules)\n"
            "_cpass.SOURCE += '\\n'\n"
            "_cpass._pass = None\n"
            "assert _cpass.load() is not None\n"
            "print(*sorted(os.listdir(os.environ['XDG_CACHE_HOME'] + '/dagdecode')))\n"
        )
        proc = run_python("-c", code, str(path), XDG_CACHE_HOME=str(tmp_path / "cache"))
        assert proc.returncode == 0, proc.stderr
        loaded_openssl, names = proc.stdout.splitlines()
        assert loaded_openssl == "False"
        # A changed source is compiled into a file of its own.
        assert len(names.split()) == 2 and all(n.endswith(".so") for n in names.split())

    def test_import_and_cli_decode_never_compile(self, tmp_path, i4):
        # A stand-in compiler that only leaves a mark, first on PATH.
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        cc = bin_dir / "cc"
        cc.write_text('#!/bin/sh\ntouch "$0.ran"\nexit 1\n')
        cc.chmod(0o755)
        cache = tmp_path / "cache"
        env = {"XDG_CACHE_HOME": str(cache), "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}"}
        path = tmp_path / "I4.json"
        save_instance(i4, path)
        assert run_python("-c", "import dagdecode", **env).returncode == 0
        for args in (["--strategy", "joint-viterbi"], ["--strategy", "viterbi", "--beta", "0"]):
            proc = run_python("-m", "dagdecode.cli", "decode", *args, "--input", str(path), **env)
            assert proc.returncode == 0, proc.stderr
        assert not cache.exists()
        assert not (bin_dir / "cc.ran").exists()
        # A library decode at beta 1 does try to compile, and decodes with numpy.
        code = (
            "import sys, dagdecode\n"
            "inst = dagdecode.parse_instance(open(sys.argv[1]).read())\n"
            "print(dagdecode.decode(inst, 'viterbi', 1.0).path.positions)"
        )
        proc = run_python("-c", code, str(path), **env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "(1, 2, 3, 4)"
        assert (bin_dir / "cc.ran").exists()
        assert (cache / "dagdecode").is_dir()
