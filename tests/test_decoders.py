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
    traced_peak,
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
    def test_i2_path_mode(self, table_build, i2):
        table = build_viterbi_table(i2, TableMode.PATH)
        assert table.alpha[1] == 0.0
        assert table.predecessor(2, 2) == 1
        assert table.alpha[0] == LOG_ZERO

    def test_i4_path_terminal_scores(self, table_build, i4):
        table = build_viterbi_table(i4, TableMode.PATH)
        assert table.alpha[1] == pytest.approx(math.log(0.1), rel=1e-12)
        assert table.alpha[2] == pytest.approx(math.log(0.28), rel=1e-12)
        assert table.alpha[3] == pytest.approx(math.log(0.42), rel=1e-12)

    def test_i4_joint_terminal_score(self, table_build, i4):
        table = build_viterbi_table(i4, TableMode.JOINT)
        assert table.alpha[3] == pytest.approx(math.log(0.127008), rel=1e-12)

    def test_backpointer_tie_breaks_to_smallest_position(self, table_build):
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
    def test_backpointers_in_narrowest_dtype(self, table_build, L, dtype, digest):
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
    def test_build_peak_within_21_bytes_per_cell(self, monkeypatch, mode):
        # The numpy build: psi and the weights are 10 bytes per cell; one
        # pass's scores may be alive at a time, and no L x L score matrix at all.
        monkeypatch.setattr(_cpass, "_kernels", False)
        L = 256
        assert build_peak(random_instance(5, L=L, V=8), mode) <= 21 * L * L

    @pytest.mark.parametrize("mode", [TableMode.PATH, TableMode.JOINT])
    def test_compiled_build_peak_within_3_bytes_per_cell(self, mode):
        # psi (2 bytes per cell at this L) and a few L-vectors: the kernel reads
        # the transitions in place and writes psi in its final dtype.
        _compiled_or_skip()
        L = 512
        assert build_peak(random_instance(5, L=L, V=8), mode) <= 3 * L * L

    def test_joint_build_peaks_no_higher_than_path_build(self, table_build):
        # Folding the emissions into the one transposed weights array keeps
        # the JOINT build's temporaries to the PATH build's.
        inst = random_instance(5, L=256, V=8)
        peaks = {mode: build_peak(inst, mode) for mode in (TableMode.PATH, TableMode.JOINT)}
        assert peaks[TableMode.JOINT] <= 1.02 * peaks[TableMode.PATH]

    @pytest.mark.parametrize("mode", [TableMode.PATH, TableMode.JOINT])
    def test_kept_bytes_are_backpointers_and_one_score_per_length(self, table_build, mode):
        L = 256
        table = build_viterbi_table(random_instance(5, L=L, V=8), mode)
        assert table.alpha.shape == (L,)
        assert table.alpha.nbytes + table.psi.nbytes <= 2 * L * L + 8 * L

    @pytest.mark.parametrize("mode", [TableMode.PATH, TableMode.JOINT])
    def test_backtraces_rescore_to_alpha(self, table_build, mode):
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
    def test_matches_oracle_per_length(self, table_build, mode):
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

    @pytest.mark.parametrize("mode", [TableMode.PATH, TableMode.JOINT])
    def test_compiled_table_identical(self, mode):
        # Every L up to 39, then around the uint8/uint16 psi boundary at 256.
        compiled = _compiled_or_skip()
        for L in [*range(1, 40), 64, 128, 254, 255, 256, 257, 300]:
            inst = random_instance(L, L=L, V=8, sparsity=0.3 if L % 4 == 0 else 0.0)
            if L > 3 and L % 2:  # finite entries no path takes, on and below the diagonal
                inst = with_transitions(inst, {(L // 2, L // 2): 5.0, (L - 1, 1): 9.0})
            weights = decoders._hop_weights(inst, mode)
            alpha, psi, overflow = compiled.table(*weights)
            expected_alpha, expected_psi, expected_overflow = decoders._numpy_table(*weights)
            assert (overflow, expected_overflow) == (0, 0)
            assert psi.dtype == expected_psi.dtype == np.min_scalar_type(L)
            assert alpha.dtype == expected_alpha.dtype == np.float64
            assert (alpha.shape, psi.shape) == ((L,), (L, L))
            assert alpha.tobytes() == expected_alpha.tobytes()
            assert psi.tobytes() == expected_psi.tobytes()

    @pytest.mark.parametrize("mode", [TableMode.PATH, TableMode.JOINT])
    def test_compiled_table_overflows_where_numpy_does(self, mode):
        # Later hops up to +-1.7e308, some -inf, and finite entries below the
        # diagonal: path scores often overflow. TestPathScoreOverflow's cases
        # overflow at the terminal ("two-hops") and before it ("chain").
        compiled = _compiled_or_skip()
        rng = np.random.default_rng(4321)
        overflows = set()
        for _ in range(300):
            L = int(rng.integers(2, 24))
            trans = rng.uniform(-1.0, 1.0, (L, L)) * 1.7e308
            trans[rng.random((L, L)) < 0.3] = LOG_ZERO
            inst = _lattice(trans, np.log(rng.dirichlet(np.ones(3), size=L)))
            weights = decoders._hop_weights(inst, mode)
            alpha, psi, overflow = compiled.table(*weights)
            expected_alpha, expected_psi, expected_overflow = decoders._numpy_table(*weights)
            assert overflow == expected_overflow
            if not overflow:
                assert alpha.tobytes() == expected_alpha.tobytes()
                assert psi.tobytes() == expected_psi.tobytes()
            overflows.add(overflow > 0)
        assert overflows == {True, False}

    @pytest.mark.parametrize("backend", ["compiled", "numpy"])
    def test_zero_bonus_is_no_bonus(self, backend):
        # JOINT weights with a zero bonus are PATH weights: the same tables, byte for byte,
        # and the same searches.
        numpy = decoders._numpy_table, decoders._numpy_decode
        table, search = _compiled_or_skip() if backend == "compiled" else numpy
        for L in [*range(1, 40), 64, 255, 256, 257]:
            inst = random_instance(L, L=L, V=8, sparsity=0.3 if L % 4 == 0 else 0.0)
            trans = inst.log_transitions
            path, joint = (table(trans, bonus, 0.0) for bonus in (None, np.zeros(L)))
            assert [a.tobytes() for a in path[:2]] == [a.tobytes() for a in joint[:2]]
            assert path[2] == joint[2] == 0
            for beta in (0.0, 1.0):
                assert search(trans, np.zeros(L), 0.0, beta) == search(trans, None, 0.0, beta)


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

    @pytest.mark.parametrize(
        "hop, emission, name",
        [(1e308, 0.0, "path_logprob"), (-1.0, 0.8e308, "emission_logprob"),
         (0.45e308, 0.45e308, "joint_logprob")],
    )
    def test_overflowing_score_is_refused(self, hop, emission, name):
        # Path 1 -> 2 -> 3 over hops of ``hop``, each position emitting
        # ``emission`` at best: the named score overflows, without a warning.
        trans = [[LOG_ZERO, hop, hop], [LOG_ZERO, LOG_ZERO, hop], [LOG_ZERO] * 3]
        inst = _lattice(trans, np.array([[emission, -1.0]] * 3))
        with pytest.raises(InstanceValidationError, match=f"the hypothesis' {name} overflows"):
            argmax_hypothesis(inst, (1, 2, 3))

    @pytest.mark.parametrize("strategy", ["greedy", "lookahead", "viterbi"])
    def test_decode_refuses_an_overflowing_emission_score(self, strategy):
        # Every strategy takes the path through all three positions.
        half = math.log(0.5)
        trans = [[LOG_ZERO, half, half], [LOG_ZERO, LOG_ZERO, 0.0], [LOG_ZERO] * 3]
        inst = _lattice(trans, np.array([[0.8e308, -1.0]] * 3))
        with pytest.raises(InstanceValidationError, match="emission_logprob overflows to"):
            decode(inst, strategy, 0.5)


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
    # "overflow-unreachable" no path reaches 2. The instance refuses both.
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
#: What the instance says of both overflow cases: hop 2 -> 4's JOINT weight overflows.
_JOINT_OVERFLOW = "log_transitions[1][3] plus the best of log_emissions[3] overflows to +inf"
#: The cell each case with a NaN, +inf or overflowing JOINT weight names when
#: the instance refuses it.
_REFUSED_CELL = {
    "nan": "log_transitions[0][1] is NaN",
    "nan-last-hop": "log_transitions[1][3] is NaN",
    "posinf": "log_transitions[1][3] is +inf",
    "nan-diagonal": "log_transitions[2][2] is NaN",
    "posinf-below-diagonal": "log_transitions[2][1] is +inf",
    "posinf-both": "log_transitions[1][3] is +inf",
    "nan-emission": "log_emissions[2][0] is NaN",
    "posinf-emission": "log_emissions[2][1] is +inf",
    "overflow": _JOINT_OVERFLOW,
    "overflow-unreachable": _JOINT_OVERFLOW,
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
    """The compiled kernels; they must load wherever ``cc`` is found."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    compiled = _cpass.load()
    assert compiled is not None
    return compiled


def _compiled_or_numpy(request, monkeypatch):
    """The compiled kernels, loaded; or (``numpy``) none, as after a failed compile.

    One ``load()`` binds both kernels, so this switches the search (each of
    its longest-path passes included) and the table build together.
    """
    if request.param == "compiled":
        _compiled_or_skip()
    else:
        monkeypatch.setattr(_cpass, "_kernels", False)
    return request.param


@pytest.fixture(params=["compiled", "numpy"])
def forward_pass(request, monkeypatch):
    """Run the test once with each search ``decoders._longest_path_search`` dispatches to."""
    return _compiled_or_numpy(request, monkeypatch)


def _one_pass(trans, bonus, start):
    """``(path, reason, passes)`` of a beta 0 search, which is one pass at lam 0.

    Compiled where the kernels load, else numpy's.
    """
    kernels = _cpass.load()
    return (kernels.decode if kernels else decoders._numpy_decode)(trans, bonus, start, 0.0)


@pytest.fixture(params=["compiled", "numpy"])
def table_build(request, monkeypatch):
    """Run the test once with each table that ``build_viterbi_table`` dispatches to."""
    return _compiled_or_numpy(request, monkeypatch)


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
    def test_equal_means_build_the_table(self, forward_pass, table_builds, strategy):
        # The walk's path and the pass's tie on the mean, so the loop stops early.
        inst = _lattice(_MEAN_TIE)
        hyp = decode(inst, strategy, 1.0)
        assert table_builds == [TABLE_MODES[strategy]]
        expected = table_decode(inst, TABLE_MODES[strategy], 1.0)[0]
        assert hypothesis_fields(hyp) == hypothesis_fields(expected)

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
        # No case may warn, the overflow cases included.
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

    def test_one_and_two_positions_decode_as_table(self, forward_pass, i2):
        no_start = np.full((1, 2), LOG_ZERO)  # every token impossible: JOINT starts at -inf
        instances = [
            Instance.from_probs([[0.0]], [[0.2, 0.8]]),
            random_instance(5, L=1, V=3),
            _lattice([[LOG_ZERO]], no_start),
            i2,
            random_instance(6, L=2, V=3),
            _lattice([[LOG_ZERO, LOG_ZERO], [LOG_ZERO] * 2]),  # L unreachable
            _lattice([[LOG_ZERO, 0.5], [LOG_ZERO] * 2], np.vstack([no_start, [[0.0, -1.0]]])),
        ]
        outcomes = set()
        for inst in instances:
            for strategy, mode in STRATEGY_MODES:
                for beta in (0.0, 1.0):
                    expected = _outcome(lambda: table_decode(inst, mode, beta)[0])
                    assert _outcome(lambda: decode(inst, strategy, beta)) == expected
                    outcomes.add(expected[0] if isinstance(expected[0], type) else "decoded")
        assert outcomes == {"decoded", UnreachableTerminalError}


def _lattice(trans, emis=None) -> Instance:
    """An unvalidated instance over ``trans``; one token, emitted with log-probability 0, by default."""
    trans = np.asarray(trans, dtype=np.float64)
    emis = np.zeros((len(trans), 1)) if emis is None else emis
    return Instance(L=len(trans), V=emis.shape[1], log_transitions=trans, log_emissions=emis)


def _chain_and_shortcut() -> np.ndarray:
    """L=6: five 5e307 hops 1 -> 2 -> ... -> 6, whose sum overflows, and one 1.5e308 hop 1 -> 6."""
    trans = np.full((6, 6), LOG_ZERO)
    for t in range(5):
        trans[t, t + 1] = 5e307
    trans[0, 5] = 1.5e308
    return trans


#: Transitions where the best path's score overflows to +inf, and the positions it spans.
#: Dropping that length would decode (1, 3) from "two-hops" and (1, 6) from "chain".
_OVERFLOWING_PATHS = {
    "two-hops": ([[LOG_ZERO, 1e308, -1.0], [LOG_ZERO, LOG_ZERO, 1e308], [LOG_ZERO] * 3], 3),
    "chain": (_chain_and_shortcut(), 6),
}


def _huge_hop_lattices(count: int) -> list[Instance]:
    """Unvalidated lattices, L 2 to 9, of later hops up to +-0.8e308, some -inf.

    With finite entries below the diagonal. JOINT weights never overflow,
    but path scores often do, and walks dead-end. The first ``count`` of one
    fixed sequence.
    """
    rng = np.random.default_rng(1234)
    lattices = []
    for _ in range(count):
        L = int(rng.integers(2, 10))
        trans = rng.uniform(-0.8e308, 0.8e308, (L, L))
        trans[rng.random((L, L)) < 0.3] = LOG_ZERO
        trans[L - 1] = LOG_ZERO
        lattices.append(_lattice(trans, np.log(rng.dirichlet(np.ones(3), size=L))))
    return lattices


class TestPathScoreOverflow:
    """A path score that overflows to +inf is bad data, in the table and on the fast path alike."""

    @pytest.mark.parametrize("case", sorted(_OVERFLOWING_PATHS))
    @pytest.mark.parametrize("strategy", sorted(TABLE_MODES))
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_overflowing_length_is_refused_not_dropped(self, forward_pass, case, strategy, beta):
        trans, positions = _OVERFLOWING_PATHS[case]
        inst = _lattice(trans)
        message = f"a path score overflows to +inf within {positions} positions"
        expected = (InstanceValidationError, f"instance failed validation: {message}")
        assert _outcome(lambda: table_decode(inst, TABLE_MODES[strategy], beta)[0]) == expected
        assert _outcome(lambda: decode(inst, strategy, beta)) == expected

    def test_huge_hops_decode_as_table(self, forward_pass):
        # No decode may warn.
        outcomes = set()
        for inst in _huge_hop_lattices(150):
            for strategy, mode in STRATEGY_MODES:
                for beta in (0.0, 1.0):
                    expected = _outcome(lambda: table_decode(inst, mode, beta)[0])
                    assert _outcome(lambda: decode(inst, strategy, beta)) == expected
                    outcomes.add(expected[0] if isinstance(expected[0], type) else "decoded")
        assert outcomes == {"decoded", InstanceValidationError, UnreachableTerminalError}


@pytest.fixture
def fresh_cpass(monkeypatch, tmp_path):
    """Reset ``_cpass`` to a new process's state, with an empty cache; its cache directory."""
    monkeypatch.setattr(_cpass, "_kernels", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "dagdecode"


def _huge_weights(L: int, seed: int) -> np.ndarray:
    """Later hops of 1e307 and more, some -inf: long paths overflow to +inf, then NaN."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(1e307, 1.7e308, (L, L))
    weights[rng.random((L, L)) < 0.2] = LOG_ZERO
    return np.where(np.tri(L, dtype=bool), LOG_ZERO, weights)


#: Later hops 0.1 + 0.2 against 0.3: the two paths to 3 differ by one ulp.
_NEAR_TIE = np.array([[LOG_ZERO, 0.1, 0.3], [LOG_ZERO, LOG_ZERO, 0.2], [LOG_ZERO] * 3])


def _pass_cases(mode: TableMode) -> list:
    """``(trans, bonus, start)`` of ``mode`` passes that reach every outcome of a pass.

    Generated lattices at L 2 to 256, with and without an unreachable
    position, funnels, ``_NEAR_TIE``, a JOINT hop that overflows as numpy adds
    it, and ``_huge_weights``. No NaN hop: an ``Instance`` holds none, and the
    kernels take the plain maximum, where numpy keeps a NaN.
    """
    instances = []
    for seed in range(12):
        L = (2, 7, 64, 256)[seed % 4]
        inst = random_instance(seed, L=L, V=8, sparsity=0.5 if seed % 3 == 0 else 0.0)
        if seed % 2 and L > 2:  # a position no path reaches, so its row is skipped
            inst = with_transitions(inst, {(t, L // 2): LOG_ZERO for t in range(L)})
        instances.append(inst)
    for twin_rows in (True, False):  # forced ties, so some paths are not certified
        instances += [funnel(random_instance(s, L=8 + s, V=3), 1 + s % 4, twin_rows)
                      for s in range(4)]
    cases = [decoders._hop_weights(inst, mode) for inst in instances]
    cases.append((_NEAR_TIE, None if mode is TableMode.PATH else np.zeros(3), 0.0))
    if mode is TableMode.JOINT:  # trans + bonus overflows first, as numpy adds them
        cases.append((np.array([[LOG_ZERO, 1e308], [LOG_ZERO] * 2]), np.array([0.0, 1e308]),
                      -1e308))
    for L in (3, 17, 64):
        bonus = None if mode is TableMode.PATH else np.full(L, 1e307)
        cases.append((_huge_weights(L, L), bonus, 0.0))
    return cases


#: Paths 1 -> 3 and 1 -> 2 -> 3 share the mean -2; the walk takes the longer, the pass
#: the shorter, so the mean stops rising.
_MEAN_TIE = np.array([[LOG_ZERO, -1.0, -4.0], [LOG_ZERO, LOG_ZERO, -5.0], [LOG_ZERO] * 3])


def _chain(L: int, seed: int) -> np.ndarray:
    """Later hops of -3 to 0.5, but 1 to 1.1 from each position to the next.

    So the walk and the best paths visit all L positions.
    """
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-3.0, 0.5, (L, L))
    weights[np.arange(L - 1), np.arange(1, L)] = rng.uniform(1.0, 1.1, L - 1)
    return np.where(np.tri(L, dtype=bool), LOG_ZERO, weights)


def _left_to_right_mean(trans, bonus, start, path) -> float:
    """A path's mean by definition: ``start``, then each hop weight in order, over its positions."""
    total = np.float64(start)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, u in zip(path[:-1], path[1:]):
            hop = trans[t - 1, u - 1] if bonus is None else trans[t - 1, u - 1] + bonus[u - 1]
            total = total + hop
    return float(total / len(path))


class TestForwardPasses:
    """The compiled search returns what the numpy search returns; without it, numpy runs."""

    def test_compiles_where_a_compiler_is_found(self):
        _compiled_or_skip()

    def test_whole_loop_identical(self, suite_500):
        # (path, reason, passes) of the compiled loop and of the numpy loop.
        compiled = _compiled_or_skip()
        instances = [*suite_500, *_huge_hop_lattices(60)]
        for twin_rows in (True, False):
            instances += [funnel(random_instance(s, L=8 + s, V=3), 1 + s % 4, twin_rows)
                          for s in range(8)]
        instances.append(_lattice(_MEAN_TIE))
        reasons = set()
        for mode in TableMode:
            pass_cases = _pass_cases(mode)
            cases = [decoders._hop_weights(inst, mode) for inst in instances] + pass_cases
            for trans, bonus, start in cases:
                for beta in (0.0, 1.0):
                    expected = decoders._numpy_decode(trans, bonus, start, beta)
                    assert compiled.decode(trans, bonus, start, beta) == expected
                    reasons.add(expected[1])
            # A beta 0 search is one pass: certified, not certified, and no path.
            pass_reasons = {decoders._numpy_decode(*case, 0.0)[1] for case in pass_cases}
            assert pass_reasons == {None, decoders.Fallback.NO_PATH,
                                    decoders.Fallback.NOT_CERTIFIED}
        assert reasons == {None, *decoders.Fallback}

    @pytest.mark.parametrize("L", [150, 400, 600])
    def test_whole_loop_identical_on_long_paths(self, L):
        # Every best path and every walk visits all L positions, so each mean sums L - 1 hops.
        compiled = _compiled_or_skip()
        inst = _lattice(_chain(L, L), np.log(np.full((L, 2), 0.5)))
        for mode in TableMode:
            trans, bonus, start = decoders._hop_weights(inst, mode)
            for beta in (0.0, 1.0):
                expected = decoders._numpy_decode(trans, bonus, start, beta)
                assert len(expected[0]) == L
                assert compiled.decode(trans, bonus, start, beta) == expected

    def test_mean_adds_hops_left_to_right(self):
        rng = np.random.default_rng(21)
        L = 700
        # Hops from 1e-3 to 1e3 in size, so that the order of the additions shows in the last bits.
        trans = rng.uniform(-1.0, 1.0, (L, L)) * 10.0 ** rng.integers(-3, 4, (L, L))
        bonus = rng.uniform(-5.0, 0.0, L)
        cases = []
        for _ in range(300):
            k = int(rng.integers(2, L + 1))
            inner = np.sort(rng.choice(np.arange(2, L), size=k - 2, replace=False)).tolist()
            cases.append((trans, (1, *inner, L), float(rng.uniform(-10.0, 0.0))))
        # 1e308 + 1e308 overflows before the two -1e308 hops could bring the sum back.
        huge = np.diag([1e308, 1e308, -1e308, -1e308], k=1)
        cases += [(huge, (1, 2, 3, 4, 5), start) for start in (0.0, LOG_ZERO)]
        cases.append((trans, (1, 350, L), LOG_ZERO))
        for trans_, path, start in cases:
            for bonus_ in (None, bonus[: len(trans_)]):
                expected = _left_to_right_mean(trans_, bonus_, start, path)
                assert decoders._mean_score(trans_, bonus_, start, path).hex() == expected.hex()
        assert decoders._mean_score(huge, None, 0.0, (1, 2, 3, 4, 5)) == np.inf

    def test_near_tie_is_not_certified(self, forward_pass):
        # Hops 1 -> 2 -> 3 score one ulp above 1 -> 3: the path is the best,
        # but within rounding of another.
        assert _one_pass(_NEAR_TIE, None, 0.0) == (None, decoders.Fallback.NOT_CERTIFIED, 1)

    @pytest.mark.parametrize("L", [17, 64])
    def test_overflow_gives_no_path(self, forward_pass, L):
        for bonus in (None, np.full(L, 1e307)):  # PATH, JOINT
            expected = (None, decoders.Fallback.NO_PATH, 1)
            assert _one_pass(_huge_weights(L, L), bonus, 0.0) == expected

    @pytest.mark.parametrize(
        "kernel, scalars",
        [("table", (0.0,)), ("decode", (0.0, 1.0))], ids=["table", "decode"],
    )
    def test_compiled_kernel_reads_arrays_in_place_or_refuses(self, kernel, scalars):
        compiled = getattr(_compiled_or_skip(), kernel)
        inst = random_instance(3, L=16, V=4)
        trans, bonus = inst.log_transitions, inst.best_emission
        for bad_trans, bad_bonus in [
            (np.asfortranarray(trans), None),
            (trans.astype(np.float32), None),
            (trans[:, :-1], None),
            (np.empty((0, 0)), None),
            (trans, np.repeat(bonus, 2)[::2]),
            (trans, bonus[:-1]),
            (trans, bonus.astype(np.float32)),
        ]:
            with pytest.raises(ValueError):
                compiled(bad_trans, bad_bonus, *scalars)

    def test_instance_stores_c_ordered_tables(self, forward_pass):
        inst = random_instance(21, L=64, V=8, sparsity=0.3)
        # Fortran-ordered views of C arrays: .T of each table's transpose.
        transposed = Instance(
            L=inst.L, V=inst.V,
            log_transitions=inst.log_transitions.T.copy().T,
            log_emissions=inst.log_emissions.T.copy().T,
        )
        assert transposed.log_transitions.flags.c_contiguous
        assert transposed.log_emissions.flags.c_contiguous
        for strategy in sorted(TABLE_MODES):
            for beta in (0.0, 1.0):
                assert hypothesis_fields(decode(transposed, strategy, beta)) == hypothesis_fields(
                    decode(inst, strategy, beta)
                )

    @pytest.mark.parametrize("strategy", sorted(TABLE_MODES))
    def test_decode_peak_within_one_byte_per_cell(self, forward_pass, strategy):
        # No L x L array: the passes read the transitions in place.
        L = 512
        inst = random_instance(9, L=L, V=8)
        assert traced_peak(lambda: decode(inst, strategy, 1.0)) <= L * L

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
        monkeypatch.setattr(_cpass, "_kernels", None)
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
            "_cpass._kernels = None\n"
            "assert _cpass.load() is not None\n"
            "print(*sorted(os.listdir(os.environ['XDG_CACHE_HOME'] + '/dagdecode')))\n"
        )
        proc = run_python("-c", code, str(path), XDG_CACHE_HOME=str(tmp_path / "cache"))
        assert proc.returncode == 0, proc.stderr
        loaded_openssl, names = proc.stdout.splitlines()
        assert loaded_openssl == "False"
        # A changed source is compiled into a file of its own.
        assert len(names.split()) == 2 and all(n.endswith(".so") for n in names.split())

    def test_relative_cache_home_is_ignored(self, tmp_path, i4):
        # The XDG spec: a relative XDG_CACHE_HOME is invalid, so ~/.cache is used.
        _compiled_or_skip()
        path = tmp_path / "I4.json"
        save_instance(i4, path)
        work, home = tmp_path / "work", tmp_path / "home"
        work.mkdir()
        code = (
            "import os, sys, dagdecode\n"
            "from dagdecode import _cpass\n"
            "os.chdir(sys.argv[2])\n"
            "inst = dagdecode.parse_instance(open(sys.argv[1]).read())\n"
            "dagdecode.decode(inst, 'joint-viterbi', 1.0)\n"
            "assert _cpass.load() is not None\n"
        )
        proc = run_python("-c", code, str(path), str(work), XDG_CACHE_HOME="rel", HOME=str(home))
        assert proc.returncode == 0, proc.stderr
        assert list(work.iterdir()) == []
        [lib] = (home / ".cache" / "dagdecode").iterdir()
        assert lib.suffix == ".so"

    def test_warm_cli_decode_imports_no_subprocess(self, tmp_path, i4):
        # Only a compile needs subprocess, and importing it costs a CLI run
        # milliseconds; this process has already filled the cache the child reads.
        _compiled_or_skip()
        path = tmp_path / "I4.json"
        save_instance(i4, path)
        code = (
            "import sys\n"
            "from dagdecode import _cpass\n"
            "from dagdecode.cli import run_cli\n"
            "assert run_cli(['decode', '--strategy', 'viterbi', '--input', sys.argv[1]]) == 0\n"
            "assert _cpass._kernels\n"
            "print('subprocess' in sys.modules, file=sys.stderr)\n"
        )
        proc = run_python("-c", code, str(path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "False"

    def test_import_never_compiles_and_decode_falls_back(self, tmp_path, i4):
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
        assert not cache.exists()
        assert not (bin_dir / "cc.ran").exists()
        # The CLI decode builds the table, so it tries to compile, and decodes
        # with numpy to the bytes the compiled kernels give.
        for args in (["--strategy", "joint-viterbi"], ["--strategy", "viterbi", "--beta", "0"]):
            argv = ("-m", "dagdecode.cli", "decode", *args, "--input", str(path))
            proc = run_python(*argv, **env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == run_python(*argv).stdout
        assert (bin_dir / "cc.ran").exists()
        assert (cache / "dagdecode").is_dir()
        # So does a library decode at beta 1, which needs only the pass.
        (bin_dir / "cc.ran").unlink()
        code = (
            "import sys, dagdecode\n"
            "inst = dagdecode.parse_instance(open(sys.argv[1]).read())\n"
            "print(dagdecode.decode(inst, 'viterbi', 1.0).path.positions)"
        )
        proc = run_python("-c", code, str(path), **env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "(1, 2, 3, 4)"
        assert (bin_dir / "cc.ran").exists()
