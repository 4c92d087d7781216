import math
import random

import numpy as np
import pytest

from dagdecode import (
    EnumerationCapError,
    Instance,
    InstanceValidationError,
    ShapeError,
    VocabError,
    brute_force_best_joint,
    brute_force_best_path,
    brute_force_marginal,
    enumerate_paths,
    marginal_translation_log_prob,
    oracle,
)

from conftest import (
    funnel,
    random_batch,
    random_instance,
    reference_best_joint,
    reference_best_path,
    reference_oracle_marginal,
    reference_paths,
    traced_peak,
)

#: Each search with its one-path-at-a-time reference.
SEARCHES = [
    (brute_force_best_path, reference_best_path),
    (brute_force_best_joint, reference_best_joint),
]
SEARCH_IDS = ["path", "joint"]
SPARSITIES = [0.0, 0.3, 0.7]


def _fields(result) -> tuple:
    """Everything an EnumerationResult holds, each probability as ``float.hex``."""
    return (
        {M: (path.positions, float(p).hex()) for M, (path, p) in result.best_per_length.items()},
        (result.global_best[0].positions, float(result.global_best[1]).hex()),
        result.path_count,
    )


def _assert_matches_reference(search, reference, inst, **kwargs):
    """``search`` gives the loop's results, each probability an ``np.float64``.

    The loop gave a Python ``float`` at L=1 in path mode and where a length's best was NaN.
    """
    result = search(inst, **kwargs)
    assert _fields(result) == _fields(reference(inst, **kwargs))
    probabilities = [p for _, p in result.best_per_length.values()] + [result.global_best[1]]
    assert {type(p) for p in probabilities} == {np.float64}
    return result


def _funnels(lengths=range(4, 11), lowest=1) -> list:
    """Lattices with exact ties (``conftest.funnel``): (instance, a, b, twin_rows); a, b 1-based.

    The tied pair is 0-based ``(a, a + 1)`` for each ``a >= lowest``.
    """
    return [
        (funnel(random_instance(70 * L + a, L=L, V=3), a, twin), a + 1, a + 2, twin)
        for L in lengths
        for a in range(lowest, L - 2)
        for twin in (True, False)
    ]


def _dyadic(seed: int, L: int) -> Instance:
    """An unnormalized lattice whose hops and emissions are 1/2 or 1/4, so many paths tie exactly.

    Every product is a power of two, so paths of one length that differ in
    several positions tie: the first of them in lexicographic order often
    lies in a later block than an equal one, and within a block, a set such
    as {2, 5} comes before {3, 4} although its bit mask is larger.
    """
    rng = np.random.default_rng(seed)
    trans = np.triu(rng.choice([0.5, 0.25], size=(L, L)), k=1)
    emis = rng.choice([0.5, 0.25], size=(L, 2))
    with np.errstate(divide="ignore"):
        return Instance(L=L, V=2, log_transitions=np.log(trans), log_emissions=np.log(emis))


class TestEnumeratePaths:
    def test_i2_single_path(self, i2):
        assert [p.positions for p in enumerate_paths(i2)] == [(1, 2)]

    def test_i4_all_subsets(self, i4):
        paths = {p.positions for p in enumerate_paths(i4)}
        assert paths == {(1, 4), (1, 2, 4), (1, 3, 4), (1, 2, 3, 4)}
        assert len(paths) == 4

    def test_count_is_two_to_the_interior(self):
        inst = random_instance(0, L=16, V=2)
        assert sum(1 for _ in enumerate_paths(inst)) == 2**14

    def test_cap_refusal(self):
        inst = random_instance(0, L=10, V=2)
        with pytest.raises(EnumerationCapError):
            list(enumerate_paths(inst, cap=8))

    def test_single_position(self):
        inst = Instance.from_probs([[0.0]], [[1.0]])
        assert [p.positions for p in enumerate_paths(inst)] == [(1,)]

    def test_every_path_is_endpoint_anchored(self):
        inst = random_instance(5, L=7, V=2)
        for path in enumerate_paths(inst):
            assert path[0] == 1 and path[-1] == 7

    @pytest.mark.parametrize("block", [2, 3, oracle.BLOCK_PATHS])
    def test_order_matches_reference(self, monkeypatch, block):
        monkeypatch.setattr(oracle, "BLOCK_PATHS", block)
        for L in range(1, 17):
            inst = random_instance(L, L=L, V=2)
            assert [p.positions for p in enumerate_paths(inst)] == list(reference_paths(inst))


class TestAgainstLoop:
    """Every result is bit-identical to the one-path-at-a-time loop, ties and types included."""

    @pytest.mark.parametrize("search, reference", SEARCHES, ids=SEARCH_IDS)
    @pytest.mark.parametrize("sparsity", SPARSITIES)
    def test_generated(self, search, reference, sparsity):
        for L in range(1, 17):
            inst = random_instance(L, L=L, V=3, sparsity=sparsity)
            _assert_matches_reference(search, reference, inst)

    @pytest.mark.parametrize("search, reference", SEARCHES, ids=SEARCH_IDS)
    def test_ties_keep_the_first_path(self, search, reference):
        for inst, a, b, twin_rows in _funnels():
            result = _assert_matches_reference(search, reference, inst)
            if twin_rows:  # each path through b has an equal twin through a, which comes first
                for path, p in result.best_per_length.values():
                    assert p == 0.0 or (a in path.positions and b not in path.positions)

    @pytest.mark.parametrize("sparsity", SPARSITIES)
    def test_marginal(self, sparsity):
        for L in range(1, 15):
            inst = random_instance(L, L=L, V=3, sparsity=sparsity)
            for length in range(1, L + 3):  # L=1 with 3 tokens has no path
                tokens = [(L + k) % 3 for k in range(length)]
                got = brute_force_marginal(inst, tokens)
                assert type(got) is float
                assert got.hex() == reference_oracle_marginal(inst, tokens).hex(), (L, tokens)

    @pytest.mark.parametrize("search, reference", SEARCHES, ids=SEARCH_IDS)
    def test_overflow_times_impossible(self, search, reference):
        _assert_matches_reference(search, reference, _huge_times_impossible())


class TestBlocks:
    """Results do not depend on where the blocks of paths split.

    A block of 1 path leaves no low positions, so every path is its own block.
    """

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("search, reference", SEARCHES, ids=SEARCH_IDS)
    def test_ties_across_block_boundaries(self, monkeypatch, search, reference, block):
        monkeypatch.setattr(oracle, "BLOCK_PATHS", block)
        for inst, *_ in _funnels(range(4, 9)):
            _assert_matches_reference(search, reference, inst)
        _assert_matches_reference(search, reference, _huge_times_impossible())

    @pytest.mark.parametrize(
        "block, lengths",
        [(4, range(6, 10)), (oracle.BLOCK_PATHS, [16])],
        ids=["block-4", "block-default"],
    )
    @pytest.mark.parametrize("search, reference", SEARCHES, ids=SEARCH_IDS)
    def test_ties_above_the_low_positions(self, monkeypatch, search, reference, block, lengths):
        # Both tied positions are high, so each tie is between two blocks.
        monkeypatch.setattr(oracle, "BLOCK_PATHS", block)
        low = block.bit_length() - 1
        funnels = _funnels(lengths, lowest=low + 1)
        assert funnels
        for inst, a, b, twin_rows in funnels:
            result = _assert_matches_reference(search, reference, inst)
            if twin_rows:
                for path, p in result.best_per_length.values():
                    assert p == 0.0 or (a in path.positions and b not in path.positions)

    @pytest.mark.parametrize("block", [1, 2, 4, 8, oracle.BLOCK_PATHS])
    @pytest.mark.parametrize("search, reference", SEARCHES, ids=SEARCH_IDS)
    def test_many_exact_ties(self, monkeypatch, search, reference, block):
        monkeypatch.setattr(oracle, "BLOCK_PATHS", block)
        for L in range(3, 10):
            for seed in range(4):
                _assert_matches_reference(search, reference, _dyadic(10 * L + seed, L))

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_marginal(self, monkeypatch, block):
        monkeypatch.setattr(oracle, "BLOCK_PATHS", block)
        for inst, *_ in _funnels(range(4, 9)):
            for length in range(1, inst.L + 2):
                tokens = [0] * length
                want = reference_oracle_marginal(inst, tokens)
                assert brute_force_marginal(inst, tokens).hex() == want.hex()

    def test_marginal_builds_only_the_prefix_sizes_it_reads(self, monkeypatch):
        # A path of M positions ends at L, above the low ones, so it takes at most M - 2 of them.
        tops, prefixes = [], oracle._prefixes

        def counted(trans, s, top):
            tops.append(top)
            return prefixes(trans, s, top)

        monkeypatch.setattr(oracle, "_prefixes", counted)
        for L, M in [(1, 1), (2, 1), (2, 2), (4, 2), (10, 3), (10, 6), (10, 11)]:
            tops.clear()
            inst, tokens = random_instance(L, L=L, V=2), [0] * M
            want = reference_oracle_marginal(inst, tokens)
            assert brute_force_marginal(inst, tokens).hex() == want.hex()
            assert tops == [min(oracle._low_count(L), max(M - 2, 0))]

    def test_memory_is_a_few_blocks(self):
        # At L=20 the most common length has C(18, 9) = 48,620 paths, whose positions
        # alone would take 7.8 MB as one array, and whose terms 1.6 MB as one list.
        inst = random_instance(0, L=20, V=3)
        peak = traced_peak(lambda: brute_force_best_joint(inst, cap=20))
        assert peak < 3 * oracle.BLOCK_PATHS * 20 * np.dtype(np.intp).itemsize
        peak = traced_peak(lambda: brute_force_marginal(inst, [0] * 10, cap=20))
        assert peak < 3 * oracle.BLOCK_PATHS * 20 * np.dtype(np.intp).itemsize

    def test_memory_with_a_cold_subset_cache(self):
        # The first search at an s also builds the cached subsets of its low positions.
        inst = random_instance(0, L=20, V=3)
        for search in (lambda: brute_force_best_joint(inst, cap=20),
                       lambda: brute_force_marginal(inst, [0] * 10, cap=20)):
            oracle._low_sets.cache_clear()
            assert traced_peak(search) < 3 * oracle.BLOCK_PATHS * 20 * np.dtype(np.intp).itemsize


class TestBestPath:
    def test_i2(self, i2):
        result = brute_force_best_path(i2)
        assert result.global_best[0].positions == (1, 2)
        assert result.global_best[1] == 1.0

    def test_i4_global(self, i4):
        result = brute_force_best_path(i4)
        assert result.global_best[0].positions == (1, 2, 3, 4)
        assert result.global_best[1] == pytest.approx(0.42, rel=1e-15)
        assert result.path_count == 4

    def test_i4_per_length(self, i4):
        best = brute_force_best_path(i4).best_per_length
        assert best[2][0].positions == (1, 4)
        assert best[2][1] == pytest.approx(0.1, rel=1e-15)
        assert best[3][0].positions == (1, 2, 4)
        assert best[3][1] == pytest.approx(0.28, rel=1e-15)
        assert best[4][1] == pytest.approx(0.42, rel=1e-15)

    def test_global_best_caps_per_length(self):
        for inst in random_batch(5, seed0=20, L=8, V=2):
            result = brute_force_best_path(inst)
            top = max(p for _, p in result.best_per_length.values())
            assert result.global_best[1] == top

    def test_deterministic_lattice_exact_product(self):
        # One forced hop per row: the best probability is the exact product.
        rng = np.random.default_rng(9)
        L = 7
        trans = np.zeros((L, L))
        hop_probs = []
        t = 0
        while t < L - 1:
            nxt = int(rng.integers(t + 1, L))
            trans[t, nxt] = 1.0
            t = nxt
        # Rows off the forced chain still need a successor to be valid.
        for t in range(L - 1):
            if trans[t].sum() == 0.0:
                trans[t, L - 1] = 1.0
        emis = np.full((L, 2), 0.5)
        inst = Instance.from_probs(trans, emis)
        result = brute_force_best_path(inst)
        assert result.global_best[1] == 1.0


class TestBestJoint:
    def test_i2(self, i2):
        result = brute_force_best_joint(i2)
        assert result.global_best[0].positions == (1, 2)
        assert result.global_best[1] == pytest.approx(0.72, rel=1e-15)

    def test_i4_global(self, i4):
        result = brute_force_best_joint(i4)
        assert result.global_best[0].positions == (1, 2, 3, 4)
        assert result.global_best[1] == pytest.approx(0.42 * 0.9 * 0.6 * 0.8 * 0.7, rel=1e-12)

    def test_i4_length_three_comparison(self, i4):
        # (1,2,4) at 0.28·0.9·0.6·0.7 beats (1,3,4) at 0.2·0.9·0.8·0.7.
        best = brute_force_best_joint(i4).best_per_length
        assert best[3][0].positions == (1, 2, 4)
        assert best[3][1] == pytest.approx(0.10584, rel=1e-12)
        assert best[2][1] == pytest.approx(0.063, rel=1e-12)


class TestMarginal:
    def test_i2(self, i2):
        assert brute_force_marginal(i2, [0, 1]) == pytest.approx(0.72, rel=1e-15)

    def test_i4_two_paths(self, i4):
        assert brute_force_marginal(i4, [0, 1, 0]) == pytest.approx(0.05616, rel=1e-12)

    def test_i4_single_path(self, i4):
        assert brute_force_marginal(i4, [0, 1]) == pytest.approx(0.063, rel=1e-12)

    def test_order_independence(self, i4):
        # Recompute the sum from per-path terms in shuffled orders.
        tokens = [0, 1, 0]
        expected = brute_force_marginal(i4, tokens)
        trans = np.exp(i4.log_transitions)
        emis = np.exp(i4.log_emissions)
        terms = []
        for path in enumerate_paths(i4):
            if len(path) != len(tokens):
                continue
            p = 1.0
            for a, b in zip(path.positions, path.positions[1:]):
                p *= trans[a - 1, b - 1]
            for t, y in zip(path.positions, tokens):
                p *= emis[t - 1, y]
            terms.append(p)
        rng = random.Random(3)
        for _ in range(5):
            rng.shuffle(terms)
            assert math.fsum(terms) == expected

    def test_no_matching_length_sums_to_zero(self, i4):
        assert brute_force_marginal(i4, [0] * 5) == 0.0

    def test_non_integral_token_refused(self, i4):
        # As in the log-space marginal: 1.9 was once scored as token 1.
        with pytest.raises(VocabError, match="token id must be an integer, got 1.9"):
            brute_force_marginal(i4, [1.9, 0])

    def test_empty_tokens_are_a_shape_error(self, i4):
        # As in the log-space marginal that the oracle checks.
        with pytest.raises(ShapeError) as scored:
            marginal_translation_log_prob(i4, [])
        with pytest.raises(ShapeError) as enumerated:
            brute_force_marginal(i4, [])
        assert str(enumerated.value) == str(scored.value) == "token sequence is empty"


def _huge_hop(log_hop: float) -> Instance:
    """An unvalidated L=3 lattice whose hop 2 -> 3 scores ``log_hop``; hop 1 -> 3 scores -1."""
    trans = np.full((3, 3), -math.inf)
    trans[0, 1], trans[0, 2], trans[1, 2] = -0.5, -1.0, log_hop
    return Instance(L=3, V=1, log_transitions=trans, log_emissions=np.zeros((3, 1)))


def _huge_times_impossible() -> Instance:
    """An unvalidated L=4 lattice: hops 1 -> 2 of 800, 1 -> 3 and 3 -> 4 of -1, 1 -> 4 of -2."""
    trans = np.full((4, 4), -math.inf)
    trans[0, 1], trans[0, 2], trans[2, 3], trans[0, 3] = 800.0, -1.0, -1.0, -2.0
    return Instance(L=4, V=1, log_transitions=trans, log_emissions=np.zeros((4, 1)))


class TestOverflow:
    """A reported probability that overflows raises a typed error, without a warning."""

    @pytest.mark.parametrize(
        "search, name", [(brute_force_best_path, "path"), (brute_force_best_joint, "joint")]
    )
    def test_best(self, search, name):
        # exp(800) overflows, so the path 1 -> 2 -> 3 has probability +inf.
        with pytest.raises(InstanceValidationError) as caught:
            search(_huge_hop(800.0))
        assert str(caught.value) == (
            f"instance failed validation: the {name} probability overflows to +inf"
        )

    def test_marginal(self):
        with pytest.raises(InstanceValidationError) as caught:
            brute_force_marginal(_huge_hop(800.0), [0, 0, 0])
        assert str(caught.value) == (
            "instance failed validation: the marginal probability overflows to +inf"
        )

    @pytest.mark.parametrize("search", [brute_force_best_path, brute_force_best_joint])
    def test_overflow_times_impossible_counts_as_zero(self, search):
        # Path 1 -> 2 -> 4 is NaN in linear space but has probability 0, as 1 -> 2 -> 3 -> 4 has.
        result = search(_huge_times_impossible())
        assert (result.global_best[0].positions, result.global_best[1]) == ((1, 3, 4), math.exp(-2))
        assert result.best_per_length[4][1] == 0.0

    def test_marginal_of_overflow_times_impossible(self):
        assert brute_force_marginal(_huge_times_impossible(), [0, 0, 0]) == math.exp(-2)

    def test_marginal_of_finite_paths_whose_sum_overflows(self):
        # Paths 1 -> 2 -> 4 and 1 -> 3 -> 4 each have probability exp(709.2), about 1.0e308.
        trans = np.full((4, 4), -math.inf)
        trans[0, 1] = trans[0, 2] = trans[1, 3] = trans[2, 3] = 354.6
        inst = Instance(L=4, V=1, log_transitions=trans, log_emissions=np.zeros((4, 1)))
        with pytest.raises(InstanceValidationError):
            brute_force_marginal(inst, [0, 0, 0])

    def test_marginal_over_finite_paths_still_sums(self):
        # Only the path 1 -> 3 has two positions, and it skips the overflowing hop.
        assert brute_force_marginal(_huge_hop(800.0), [0, 0]) == math.exp(-1.0)
