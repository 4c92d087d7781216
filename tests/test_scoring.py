import math
import warnings

import numpy as np
import pytest

from dagdecode import (
    InfeasibleLengthError,
    Instance,
    InstanceValidationError,
    PathShapeError,
    ShapeError,
    VocabError,
    argmax_emission,
    brute_force_marginal,
    decode,
    entropy_stats,
    joint_log_prob,
    marginal_translation_log_prob,
    path_log_prob,
    translation_given_path_log_prob,
)

from dagdecode.decoders import STRATEGIES

from conftest import random_batch, random_instance, reference_marginal


class TestPathLogProb:
    def test_single_hop_certain(self, i2):
        assert path_log_prob(i2, (1, 2)) == 0.0

    def test_product_of_hops(self, i4):
        assert path_log_prob(i4, (1, 2, 3, 4)) == pytest.approx(
            math.log(0.7 * 0.6 * 1.0), rel=1e-12
        )
        assert path_log_prob(i4, (1, 4)) == pytest.approx(math.log(0.1), rel=1e-12)

    def test_impossible_hop_is_log_zero(self, i4):
        # Hop 3 -> 4 exists but 2 -> 3 -> ... start from an impossible hop:
        # positions are fine, the entry is -inf only on sparse lattices.
        inst = random_instance(3, L=8, V=2, sparsity=0.6)
        infinite = np.argwhere(~np.isfinite(inst.log_transitions[0, 1:])).ravel()
        if infinite.size:
            target = int(infinite[0]) + 2
            if target < inst.L:
                assert path_log_prob(inst, (1, target, inst.L)) == -math.inf

    def test_malformed_paths_rejected(self, i4):
        with pytest.raises(PathShapeError):
            path_log_prob(i4, (1, 3, 2, 4))
        with pytest.raises(PathShapeError):
            path_log_prob(i4, (2, 3, 4))
        with pytest.raises(PathShapeError):
            path_log_prob(i4, (1, 2, 3))


class TestTranslationGivenPath:
    def test_two_factor_product(self, i2):
        assert translation_given_path_log_prob(i2, (1, 2), [0, 1]) == pytest.approx(
            math.log(0.72), rel=1e-12
        )

    def test_direct_emission_product(self, i4):
        assert translation_given_path_log_prob(i4, (1, 4), [0, 1]) == pytest.approx(
            math.log(0.9 * 0.7), rel=1e-12
        )

    def test_length_mismatch(self, i2):
        with pytest.raises(ShapeError):
            translation_given_path_log_prob(i2, (1, 2), [0])

    def test_token_out_of_range(self, i2):
        with pytest.raises(VocabError):
            translation_given_path_log_prob(i2, (1, 2), [0, 2])


class TestJointLogProb:
    def test_i2(self, i2):
        assert joint_log_prob(i2, (1, 2), [0, 1]) == pytest.approx(
            math.log(0.72), rel=1e-12
        )

    def test_i4_full_path(self, i4):
        expected = math.log(0.42 * 0.9 * 0.6 * 0.8 * 0.7)
        assert joint_log_prob(i4, (1, 2, 3, 4), [0, 1, 0, 1]) == pytest.approx(
            expected, rel=1e-12
        )

    def test_i4_short_path(self, i4):
        assert joint_log_prob(i4, (1, 4), [0, 1]) == pytest.approx(
            math.log(0.1 * 0.9 * 0.7), rel=1e-12
        )

    def test_sum_identity_on_random_instances(self):
        for inst in random_batch(10, seed0=40, L=7, V=3):
            rng = np.random.default_rng(inst.meta["generator"]["seed"])
            interior = sorted(
                rng.choice(range(2, inst.L), size=rng.integers(0, inst.L - 1), replace=False)
            )
            path = (1, *[int(p) for p in interior], inst.L)
            tokens = [int(t) for t in rng.integers(0, inst.V, size=len(path))]
            joint = joint_log_prob(inst, path, tokens)
            assert joint == path_log_prob(inst, path) + translation_given_path_log_prob(
                inst, path, tokens
            )


class TestMarginal:
    def test_single_path(self, i2):
        assert marginal_translation_log_prob(i2, [0, 1]) == pytest.approx(
            math.log(0.72), rel=1e-12
        )

    def test_single_length_two_path(self, i4):
        assert marginal_translation_log_prob(i4, [0, 1]) == pytest.approx(
            math.log(0.063), rel=1e-12
        )

    def test_two_path_sum(self, i4):
        # (1,2,4): 0.28 * 0.9*0.6*0.3 and (1,3,4): 0.2 * 0.9*0.2*0.3
        assert math.exp(marginal_translation_log_prob(i4, [0, 1, 0])) == pytest.approx(
            0.04536 + 0.0108, rel=1e-12
        )

    def test_infeasible_lengths_are_distinct_signal(self, i4):
        with pytest.raises(InfeasibleLengthError):
            marginal_translation_log_prob(i4, [0] * 5)
        with pytest.raises(InfeasibleLengthError):
            marginal_translation_log_prob(i4, [0])

    def test_empty_tokens_rejected(self, i4):
        with pytest.raises(ShapeError):
            marginal_translation_log_prob(i4, [])

    def test_single_position_lattice(self):
        inst = Instance.from_probs([[0.0]], [[0.25, 0.75]])
        assert marginal_translation_log_prob(inst, [1]) == pytest.approx(math.log(0.75))

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(77)
        for inst in random_batch(20, seed0=100, L=8, V=3):
            M = int(rng.integers(2, inst.L + 1))
            tokens = [int(t) for t in rng.integers(0, inst.V, size=M)]
            dp = math.exp(marginal_translation_log_prob(inst, tokens))
            exact = brute_force_marginal(inst, tokens)
            assert dp == pytest.approx(exact, rel=1e-9)

    def test_dominates_any_single_path(self, i4):
        for path, tokens in [((1, 2, 4), [0, 1, 0]), ((1, 3, 4), [0, 1, 0])]:
            assert marginal_translation_log_prob(i4, tokens) >= joint_log_prob(
                i4, path, tokens
            ) - 1e-9


def assert_bit_identical(inst, tokens):
    """The marginal equals the full recursion's bit for bit, and raises no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = marginal_translation_log_prob(inst, tokens)
    assert got.hex() == reference_marginal(inst, tokens).hex(), (inst.L, list(tokens))
    return got


class TestMarginalBitIdentity:
    """The windowed recursion against the one over every cell (``reference_marginal``)."""

    def test_every_strategy_hypothesis_on_suite(self, suite_500):
        for inst in suite_500:
            for strategy in STRATEGIES:
                assert_bit_identical(inst, decode(inst, strategy).tokens)

    @pytest.mark.parametrize("sparsity", [0.0, 0.5])
    def test_random_token_sequences(self, sparsity):
        # Three tokens on many positions make the last step sum a long column,
        # which must still be summed in row order.
        rng = np.random.default_rng(5)
        for k in range(60):
            inst = random_instance(400 + k, L=int(rng.integers(2, 90)), V=4, sparsity=sparsity)
            for M in {2, min(3, inst.L), inst.L, int(rng.integers(2, inst.L + 1))}:
                assert_bit_identical(inst, rng.integers(0, inst.V, size=M))

    def test_one_position_one_token(self):
        for k in range(5):
            inst = random_instance(k, L=1, V=3)
            for token in range(3):
                assert_bit_identical(inst, [token])

    def test_long_lattices(self):
        rng = np.random.default_rng(9)
        for L in (150, 257):
            inst = random_instance(L, L=L, V=3, sparsity=0.3)
            for M in (2, 3, L // 2, L - 1, L):
                assert_bit_identical(inst, rng.integers(0, inst.V, size=M))

    def test_no_reachable_cell_is_minus_inf(self):
        # Position 1 hops only to L, so no path of 3 or more tokens exists.
        L = 6
        trans = np.zeros((L, L))
        trans[0, L - 1] = 1.0
        for t in range(1, L - 1):
            trans[t, t + 1 :] = 1.0 / (L - 1 - t)
        inst = Instance.from_probs(trans, np.full((L, 2), 0.5))
        assert assert_bit_identical(inst, [0, 1]) == pytest.approx(2 * math.log(0.5))
        for M in range(3, L + 1):
            assert assert_bit_identical(inst, [0] * M) == -math.inf

    def test_unemittable_token_empties_a_window(self):
        inst = random_instance(3, L=9, V=3)
        emissions = np.exp(inst.log_emissions)
        emissions[:, 2] = 0.0
        emissions /= emissions.sum(axis=1, keepdims=True)
        inst = Instance.from_probs(np.exp(inst.log_transitions), emissions)
        for tokens in ([0, 2, 1], [0, 1, 2, 1, 0], [1, 0, 0, 0, 2], [2, 0]):
            assert assert_bit_identical(inst, tokens) == -math.inf

    def test_sparse_rows(self):
        rng = np.random.default_rng(13)
        for inst in random_batch(30, seed0=700, L=12, V=2, sparsity=0.85):
            for M in range(2, inst.L + 1):
                assert_bit_identical(inst, rng.integers(0, inst.V, size=M))

    @pytest.mark.parametrize(
        "tokens, error, message",
        [
            ([], ShapeError, "token sequence is empty"),
            ([0] * 5, InfeasibleLengthError, "no path of length 5 exists on a lattice of 4 positions"),
            ([0], InfeasibleLengthError, "no path of length 1 exists on a lattice of 4 positions"),
            ([0, 2], VocabError, "token id 2 outside vocabulary of size 2"),
            ([-1, 0], VocabError, "token id -1 outside vocabulary of size 2"),
            ([2**70, 0], VocabError, f"token id {2**70} outside vocabulary of size 2"),
            ([5] * 9, VocabError, "token id 5 outside vocabulary of size 2"),
        ],
    )
    def test_errors_unchanged(self, i4, tokens, error, message):
        with pytest.raises(error) as caught:
            marginal_translation_log_prob(i4, tokens)
        assert type(caught.value) is error
        assert str(caught.value) == message


class TestNonIntegralInput:
    """A position or token id that is not an integer is refused, naming it, never truncated."""

    @pytest.mark.parametrize(
        "score",
        [
            lambda inst: joint_log_prob(inst, [1, 4], [1.9, 0]),
            lambda inst: translation_given_path_log_prob(inst, [1, 4], [1.9, 0]),
            lambda inst: marginal_translation_log_prob(inst, [1.9, 0]),
        ],
        ids=["joint", "given-path", "marginal"],
    )
    def test_token_id(self, i4, score):
        with pytest.raises(VocabError) as caught:
            score(i4)
        assert str(caught.value) == "token id must be an integer, got 1.9"

    def test_strings_are_not_read_as_digits(self, i4):
        # "14" was scored as the path (1, 4), and "01" as the tokens [0, 1].
        with pytest.raises(PathShapeError, match="path position must be an integer, got '1'"):
            path_log_prob(i4, "14")
        with pytest.raises(VocabError, match="token id must be an integer, got '0'"):
            marginal_translation_log_prob(i4, "01")

    def test_position(self, i4):
        with pytest.raises(PathShapeError, match="path position must be an integer, got 2.9"):
            path_log_prob(i4, [1, 2.9, 4])
        with pytest.raises(PathShapeError, match="^position must be an integer, got 2.5$"):
            argmax_emission(i4, 2.5)
        path, tokens = np.array([1, 2, 4]), np.array([0, 1, 0], dtype=np.int32)
        assert joint_log_prob(i4, path, tokens) == joint_log_prob(i4, [1, 2, 4], [0, 1, 0])
        assert argmax_emission(i4, np.int64(2)) == argmax_emission(i4, 2)

    @pytest.mark.parametrize(
        "score, error, message",
        [
            (lambda inst: path_log_prob(inst, 4), PathShapeError,
             "path positions must be a sequence, got 4"),
            (lambda inst: translation_given_path_log_prob(inst, 5, [0]), PathShapeError,
             "path positions must be a sequence, got 5"),
            (lambda inst: marginal_translation_log_prob(inst, 3), VocabError,
             "token ids must be a sequence, got 3"),
            (lambda inst: brute_force_marginal(inst, None), VocabError,
             "token ids must be a sequence, got None"),
        ],
        ids=["path", "given-path", "marginal", "oracle-marginal"],
    )
    def test_not_a_sequence(self, i4, score, error, message):
        # Each raised a bare TypeError ("'int' object is not iterable"), no LatticeError.
        with pytest.raises(error) as caught:
            score(i4)
        assert str(caught.value) == message


class TestScoreOverflow:
    """Scores that overflow on unvalidated tables raise a typed error, without a warning."""

    @pytest.fixture
    def huge(self, i4) -> Instance:
        """I4 with every token-0 emission 1e308: any two of them sum to +inf."""
        emissions = i4.log_emissions.copy()
        emissions[:, 0] = 1e308
        return Instance(L=4, V=2, log_transitions=i4.log_transitions, log_emissions=emissions)

    @pytest.mark.parametrize("tokens", [[0, 0], [0, 0, 0], [0, 0, 0, 0]])
    def test_marginal(self, huge, tokens):
        with pytest.raises(InstanceValidationError) as caught:
            marginal_translation_log_prob(huge, tokens)
        assert str(caught.value) == (
            "instance failed validation: the marginal log-probability overflows to +inf"
        )

    @pytest.mark.parametrize("path", [(1, 4), (1, 2, 4), (1, 2, 3, 4)])
    def test_translation_given_path(self, huge, path):
        with pytest.raises(InstanceValidationError) as caught:
            translation_given_path_log_prob(huge, path, [0] * len(path))
        assert str(caught.value) == (
            "instance failed validation: the emission log-probability overflows to +inf"
        )

    def test_path(self):
        # Hops 1 -> 2 -> 3 of 1e308 each; the hop 1 -> 3 alone scores -1.
        trans = np.full((3, 3), -math.inf)
        trans[0, 1], trans[1, 2], trans[0, 2] = 1e308, 1e308, -1.0
        inst = Instance(L=3, V=1, log_transitions=trans, log_emissions=np.zeros((3, 1)))
        with pytest.raises(InstanceValidationError) as caught:
            path_log_prob(inst, (1, 2, 3))
        assert str(caught.value) == (
            "instance failed validation: the path log-probability overflows to +inf"
        )
        assert path_log_prob(inst, (1, 3)) == -1.0

    def test_joint(self):
        # Hop 1 -> 2 and position 1's only emission score 1e308 each: both
        # parts are finite, their sum is not.
        trans = np.array([[-math.inf, 1e308], [-math.inf, -math.inf]])
        inst = Instance(L=2, V=1, log_transitions=trans, log_emissions=np.array([[1e308], [0.0]]))
        assert path_log_prob(inst, (1, 2)) == translation_given_path_log_prob(inst, (1, 2), [0, 0])
        with pytest.raises(InstanceValidationError) as caught:
            joint_log_prob(inst, (1, 2), [0, 0])
        assert str(caught.value) == (
            "instance failed validation: the joint log-probability overflows to +inf"
        )

    def test_one_huge_emission_still_scores(self, huge):
        assert marginal_translation_log_prob(huge, [1, 0]) == pytest.approx(1e308)
        assert translation_given_path_log_prob(huge, (1, 4), [0, 1]) == pytest.approx(1e308)


class TestEntropyStats:
    def test_deterministic_transitions(self, i2):
        stats = entropy_stats(i2)
        assert stats.transition_entropy == 0.0
        expected = np.mean(
            [
                -(0.9 * math.log(0.9) + 0.1 * math.log(0.1)),
                -(0.2 * math.log(0.2) + 0.8 * math.log(0.8)),
            ]
        )
        assert stats.prediction_entropy == pytest.approx(expected, rel=1e-12)

    def test_uniform_two_way_row(self):
        inst = Instance.from_probs(
            [[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
            [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]],
        )
        stats = entropy_stats(inst)
        assert stats.transition_entropy == pytest.approx(math.log(2) / 2, rel=1e-12)
        assert stats.prediction_entropy == 0.0

    def test_i4_first_row_contribution(self, i4):
        row1 = -(0.7 * math.log(0.7) + 0.2 * math.log(0.2) + 0.1 * math.log(0.1))
        row2 = -(0.6 * math.log(0.6) + 0.4 * math.log(0.4))
        assert row1 == pytest.approx(0.8018, abs=1e-4)
        assert entropy_stats(i4).transition_entropy == pytest.approx(
            (row1 + row2 + 0.0) / 3, rel=1e-12
        )

    def test_single_position_lattice(self):
        # No transition rows: the transition entropy is 0, not the mean of none.
        stats = entropy_stats(Instance.from_probs([[0.0]], [[0.25, 0.75]]))
        assert stats.transition_entropy == 0.0
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert stats.prediction_entropy == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_bounded(self):
        for inst in random_batch(10, seed0=60, L=6, V=4):
            stats = entropy_stats(inst)
            assert 0.0 <= stats.transition_entropy <= math.log(inst.L - 1)
            assert 0.0 <= stats.prediction_entropy <= math.log(inst.V)


class TestArgmaxEmission:
    def test_reads_rows(self, i2, i4):
        assert argmax_emission(i2, 1) == (0, pytest.approx(math.log(0.9)))
        assert argmax_emission(i4, 2) == (1, pytest.approx(math.log(0.6)))

    def test_tie_breaks_to_smallest_id(self):
        inst = Instance.from_probs([[0.0]], [[0.5, 0.5]])
        token, _ = argmax_emission(inst, 1)
        assert token == 0

    def test_position_out_of_range(self, i2):
        with pytest.raises(PathShapeError):
            argmax_emission(i2, 0)
        with pytest.raises(PathShapeError):
            argmax_emission(i2, 3)
