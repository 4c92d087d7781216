"""Property tests: the decoders against the exhaustive oracle on random small lattices.

Lattices come from the seeded generator (L <= 12, V <= 4, sparsity 0-0.5).
At beta 0 and 1 ``decode`` finds the table's answer without the table; it
is checked field by field against ``table_decode``, ties included, and the
compiled search behind it against the numpy one.
The tie tests reshape a generated lattice so that two neighbouring
positions ``a`` and ``b = a + 1`` share their incoming transition column
and every path passes through one of them, which makes exact ties certain
rather than rare. Lattices with finite transition entries on or below the
diagonal (accepted unvalidated) must decode and score as if those entries
were ``-inf``: no path can take them, and the oracle never does.
"""

import math
import shutil
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagdecode import (
    TableMode,
    backtrace,
    brute_force_best_joint,
    brute_force_best_path,
    brute_force_marginal,
    build_viterbi_table,
    decode,
    decode_all_lengths,
    greedy_decode,
    joint_viterbi_decode,
    lookahead_decode,
    marginal_translation_log_prob,
    table_decode,
)
from dagdecode import _cpass, decoders
from dagdecode.decoders import TABLE_MODES
from dagdecode.lattice import later_hops

from conftest import (
    funnel,
    hypothesis_fields,
    random_instance,
    reference_marginal,
    with_transitions,
)

MODES = st.sampled_from([TableMode.PATH, TableMode.JOINT])
TABLE_STRATEGIES = st.sampled_from(sorted(TABLE_MODES))
#: The length penalties at which decode takes longest-path passes instead of the table.
PASS_BETAS = st.sampled_from([0.0, 1.0])

#: Fixed examples (no example database), so every run checks the same lattices.
examples = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def lattices(draw, min_L=1, max_L=12):
    return random_instance(
        draw(st.integers(0, 2**32 - 1)),
        L=draw(st.integers(min_L, max_L)),
        V=draw(st.integers(1, 4)),
        sparsity=draw(st.floats(0.0, 0.5)),
    )


@st.composite
def backward_hops(draw):
    """A generated lattice with 1-3 finite transition entries on or below the diagonal."""
    inst = draw(lattices())
    cells = {}
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, inst.L - 1))
        cells[row, draw(st.integers(0, row))] = draw(st.floats(-2.0, 1.5))
    return with_transitions(inst, cells)


@st.composite
def funnels(draw, twin_rows: bool):
    """A generated lattice in which every path visits position a or b = a + 1 (see ``funnel``)."""
    inst = draw(lattices(min_L=4))
    a = draw(st.integers(1, inst.L - 3))  # 0-based; b = a + 1 is interior
    return funnel(inst, a, twin_rows), a + 1, a + 2


@examples
@given(lattices())
def test_viterbi_per_length_scores_match_oracle(inst):
    _, selection, table = table_decode(inst, TableMode.PATH, 0.0)
    best = brute_force_best_path(inst).best_per_length
    assert set(selection.per_length_scores) == {m for m, (_, p) in best.items() if p > 0}
    assert table.feasible_lengths() == sorted(selection.per_length_scores)
    for length, (raw, _) in selection.per_length_scores.items():
        assert math.isclose(math.exp(raw), best[length][1], rel_tol=1e-12)


@examples
@given(lattices(), MODES)
def test_every_length_hypothesis_matches_oracle(inst, mode):
    # Each length's backtrace, not only the selected one's, reaches that length's optimum.
    table = build_viterbi_table(inst, mode)
    if mode is TableMode.PATH:
        best = brute_force_best_path(inst).best_per_length
        logprob = attrgetter("path_logprob")
    else:
        best = brute_force_best_joint(inst).best_per_length
        logprob = attrgetter("joint_logprob")
    hyps = decode_all_lengths(inst, table)
    assert [h.length for h in hyps] == sorted(m for m, (_, p) in best.items() if p > 0)
    for hyp in hyps:
        assert math.isclose(math.exp(logprob(hyp)), best[hyp.length][1], rel_tol=1e-12)


@examples
@given(lattices())
def test_joint_viterbi_beta0_matches_joint_oracle(inst):
    hyp = joint_viterbi_decode(inst, beta=0.0)
    _, best_prob = brute_force_best_joint(inst).global_best
    assert math.isclose(math.exp(hyp.joint_logprob), best_prob, rel_tol=1e-9)


@examples
@given(lattices())
def test_sequential_decoders_never_beat_joint_viterbi(inst):
    best = joint_viterbi_decode(inst, beta=0.0).joint_logprob
    assert greedy_decode(inst).joint_logprob <= best
    assert lookahead_decode(inst).joint_logprob <= best


@examples
@given(funnels(twin_rows=True), MODES)
def test_equal_predecessors_resolve_to_the_smaller(funnel, mode):
    inst, a, b = funnel
    table = build_viterbi_table(inst, mode)
    for length in table.feasible_lengths():
        path = backtrace(table, length).positions
        assert a in path and b not in path


@examples
@given(funnels(twin_rows=False), MODES)
def test_equal_lengths_resolve_to_the_larger(funnel, mode):
    inst, a, b = funnel
    hyp, selection, _ = table_decode(inst, mode, 0.0)
    raw = {length: score for length, (score, _) in selection.per_length_scores.items()}
    top = max(raw.values())
    assert selection.chosen_M == max(length for length, score in raw.items() if score == top)
    assert sum(score == top for score in raw.values()) >= 2
    assert a in hyp.path.positions and b in hyp.path.positions


@examples
@given(lattices(), TABLE_STRATEGIES, PASS_BETAS)
def test_decode_matches_table(inst, strategy, beta):
    expected = table_decode(inst, TABLE_MODES[strategy], beta)[0]
    assert hypothesis_fields(decode(inst, strategy, beta)) == hypothesis_fields(expected)


@examples
@given(st.booleans().flatmap(funnels), TABLE_STRATEGIES, PASS_BETAS)
def test_decode_matches_table_on_ties(funnel, strategy, beta):
    inst = funnel[0]
    expected = table_decode(inst, TABLE_MODES[strategy], beta)[0]
    assert hypothesis_fields(decode(inst, strategy, beta)) == hypothesis_fields(expected)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@examples
@given(st.one_of(lattices(), st.booleans().flatmap(funnels).map(lambda f: f[0]), backward_hops()),
       MODES, PASS_BETAS)
def test_compiled_loop_matches_numpy_loop(inst, mode, beta):
    weights = decoders._hop_weights(inst, mode)
    expected = decoders._numpy_decode(*weights, beta)
    assert _cpass.load().decode(*weights, beta) == expected


@examples
@given(lattices())
def test_joint_viterbi_beta1_attains_best_mean(inst):
    hyp = joint_viterbi_decode(inst, beta=1.0)
    best = brute_force_best_joint(inst).best_per_length
    top = max(math.log(p) / length for length, (_, p) in best.items() if p > 0)
    assert math.isclose(hyp.joint_logprob / hyp.length, top, rel_tol=1e-9)


@examples
@given(backward_hops(), MODES)
def test_table_ignores_entries_not_later(inst, mode):
    table = build_viterbi_table(inst, mode)
    oracle = brute_force_best_path if mode is TableMode.PATH else brute_force_best_joint
    best = oracle(inst).best_per_length
    assert table.feasible_lengths() == sorted(m for m, (_, p) in best.items() if p > 0)
    for length in table.feasible_lengths():
        assert math.isclose(math.exp(table.alpha[length - 1]), best[length][1], rel_tol=1e-12)


@examples
@given(backward_hops(), st.data())
def test_marginal_ignores_entries_not_later(inst, data):
    length = data.draw(st.integers(min(2, inst.L), inst.L))
    tokens = data.draw(st.lists(st.integers(0, inst.V - 1), min_size=length, max_size=length))
    logprob = marginal_translation_log_prob(inst, tokens)
    exact = brute_force_marginal(inst, tokens)
    if exact == 0.0:
        assert logprob == -math.inf
    else:
        assert math.isclose(math.exp(logprob), exact, rel_tol=1e-9)


@examples
@given(st.one_of(lattices(), lattices(max_L=40), backward_hops()), st.data())
def test_marginal_is_bit_identical_to_full_recursion(inst, data):
    length = data.draw(st.integers(min(2, inst.L), inst.L))
    tokens = data.draw(st.lists(st.integers(0, inst.V - 1), min_size=length, max_size=length))
    expected = reference_marginal(inst, tokens).hex()
    assert marginal_translation_log_prob(inst, tokens).hex() == expected
    hops = later_hops(inst.log_transitions)  # as compare_strategies passes it, once per instance
    assert marginal_translation_log_prob(inst, tokens, hops=hops).hex() == expected


@examples
@given(backward_hops(), TABLE_STRATEGIES, PASS_BETAS)
def test_decode_matches_table_on_entries_not_later(inst, strategy, beta):
    expected = table_decode(inst, TABLE_MODES[strategy], beta)[0]
    assert hypothesis_fields(decode(inst, strategy, beta)) == hypothesis_fields(expected)
