"""Property tests: the decoders against the exhaustive oracle on random small lattices.

Lattices come from the seeded generator (L <= 9, V <= 4, sparsity 0-0.5).
The tie tests reshape a generated lattice so that two neighbouring
positions ``a`` and ``b = a + 1`` share their incoming transition column
and every path passes through one of them, which makes exact ties certain
rather than rare.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dagdecode import (
    Instance,
    TableMode,
    backtrace,
    brute_force_best_joint,
    brute_force_best_path,
    build_viterbi_table,
    greedy_decode,
    joint_viterbi_decode,
    lookahead_decode,
    table_decode,
)

from conftest import random_instance

MODES = st.sampled_from([TableMode.PATH, TableMode.JOINT])

#: Fixed examples (no example database), so every run checks the same lattices.
examples = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def lattices(draw, min_L=1):
    return random_instance(
        draw(st.integers(0, 2**32 - 1)),
        L=draw(st.integers(min_L, 9)),
        V=draw(st.integers(1, 4)),
        sparsity=draw(st.floats(0.0, 0.5)),
    )


@st.composite
def funnels(draw, twin_rows: bool):
    """A generated lattice in which every path visits position a or b = a + 1.

    Rows before a reach nothing beyond b, and column b copies column a. With
    ``twin_rows`` row a copies row b, so a and b are interchangeable and
    every best path has an equal-scoring twin of the same length. Without
    it a moves to b with probability 1 and both emit token 0 with
    probability 1, so every path through b alone has an equal-scoring twin
    one position longer.
    """
    inst = draw(lattices(min_L=4))
    a = draw(st.integers(1, inst.L - 3))  # 0-based; b = a + 1 is interior
    b = a + 1
    trans = np.exp(inst.log_transitions)
    emis = np.exp(inst.log_emissions)
    trans[:a, b + 1 :] = 0.0
    trans[:a, b] = trans[:a, a]
    for t in range(a):
        if not trans[t, t + 1 :].any():
            trans[t, [a, b]] = 1.0
    if twin_rows:
        trans[a] = trans[b]
        emis[b] = emis[a]
    else:
        trans[a] = 0.0
        trans[a, b] = 1.0
        emis[[a, b]] = 0.0
        emis[[a, b], 0] = 1.0
    sums = trans.sum(axis=1, keepdims=True)
    trans /= np.where(sums > 0, sums, 1.0)
    return Instance.from_probs(trans, emis), a + 1, b + 1


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
