"""Exact probability computations over a lattice instance.

Path probability is a product of transition entries along the hops, the
conditional translation probability a product of emission entries at the
visited positions, and the marginal translation probability sums the joint
over every path of matching length via a sum-space forward recursion.
The recursion visits only the cells from which a path can still reach the
terminal with the tokens it has left, and its results are bit-identical to
a recursion over every cell (see :func:`marginal_translation_log_prob`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleLengthError,
    InstanceValidationError,
    PathShapeError,
    ShapeError,
)
from .lattice import DecodingPath, Instance, as_path, check_tokens, later_hops
from .logmath import entropy_nats, logsumexp


@dataclass(frozen=True)
class EntropyStats:
    """Mean per-row Shannon entropies of the two tables, in nats."""

    transition_entropy: float
    prediction_entropy: float


def path_log_prob(instance: Instance, path) -> float:
    """Log-probability of a decoding path: the sum of its hop log-scores.

    Returns ``-inf`` when any hop is impossible. Malformed paths (wrong
    endpoints, not strictly increasing, positions outside the lattice)
    raise PathShapeError. A sum that overflows to ``+inf`` raises
    InstanceValidationError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        path_lp = _hop_sum(instance, path)
    return _finite_score(path_lp, "path log-probability")


def translation_given_path_log_prob(instance: Instance, path, tokens) -> float:
    """Log-probability of emitting ``tokens`` along ``path``.

    A sum that overflows to ``+inf`` raises InstanceValidationError.
    """
    p = _checked_path(instance, path)
    toks = check_tokens(instance, tokens)
    if len(toks) != len(p):
        raise ShapeError(f"{len(toks)} tokens for a path of length {len(p)}")
    pos = np.asarray(p.positions, dtype=np.intp) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        emission_lp = np.sum(instance.log_emissions[pos, toks])
    return _finite_score(emission_lp, "emission log-probability")


def joint_log_prob(instance: Instance, path, tokens) -> float:
    """Log-probability of the (path, tokens) pair; ``+inf`` raises InstanceValidationError."""
    joint = path_log_prob(instance, path) + translation_given_path_log_prob(instance, path, tokens)
    return _finite_score(joint, "joint log-probability")


def marginal_translation_log_prob(instance: Instance, tokens) -> float:
    """Log-probability of ``tokens`` summed over all paths of its length.

    Forward recursion over (target index, lattice position) with
    log-sum-exp accumulation; the first token sits at position 1 only, so
    every summed path starts at 1, and the answer is read at position L.

    With M tokens on L positions, token k (1-based) can sit only at
    positions k..L-M+k, the first token only at 1 and the last only at L.
    So each step reduces only the source rows the previous token can
    occupy against the target columns the next token can. A cell left out
    would add an exact ``+0.0`` to its column's sum, and each sum still runs
    over the source rows in ascending order (the last step reduces a
    two-column slice, because numpy sums a single column pairwise), so the
    result is bit-identical to the recursion over every cell. A score that
    overflows to ``+inf`` (emissions near 1e308 on an unvalidated instance)
    raises InstanceValidationError instead.

    Raises InfeasibleLengthError when no path of that length can exist
    (more tokens than positions, or a single token on a multi-position
    lattice); infeasibility is a distinct signal, not ``-inf``.
    """
    toks = check_tokens(instance, tokens)
    M, L = len(toks), instance.L
    if M == 0:
        raise ShapeError("token sequence is empty")
    if M > L or (M == 1 and L > 1):
        raise InfeasibleLengthError(
            f"no path of length {M} exists on a lattice of {L} positions"
        )
    emissions = instance.log_emissions
    if M == 1:
        return float(emissions[0, toks[0]])
    hops = later_hops(instance.log_transitions)
    width = L - M + 1
    # forward[k] is the log-score of the tokens so far ending at 0-based position start + k.
    forward, start = emissions[0, toks[:1]], 0
    with np.errstate(over="ignore", invalid="ignore"):  # once per call: checked at the end
        for i in range(1, M - 1):
            block = hops[start : start + len(forward), i : i + width]
            forward = (logsumexp(forward[:, None] + block, axis=0)
                       + emissions[i : i + width, toks[i]])
            start = i
        block = hops[start : start + len(forward), L - 2 :]
        marginal = logsumexp(forward[:, None] + block, axis=0)[1] + emissions[L - 1, toks[-1]]
    return _finite_score(marginal, "marginal log-probability")


def entropy_stats(instance: Instance) -> EntropyStats:
    """Mean transition-row and emission-row entropies in nats.

    Transition rows cover t < L (the terminal row has no distribution);
    emission rows cover every position. ``-inf`` entries carry zero mass.
    A single-position lattice has no transition rows and reports 0.
    """
    L = instance.L
    if L > 1:
        t_ent = float(
            np.mean([entropy_nats(instance.log_transitions[t]) for t in range(L - 1)])
        )
    else:
        t_ent = 0.0
    p_ent = float(np.mean([entropy_nats(instance.log_emissions[t]) for t in range(L)]))
    return EntropyStats(transition_entropy=t_ent, prediction_entropy=p_ent)


def argmax_emission(instance: Instance, position: int) -> tuple[int, float]:
    """Most probable token at a 1-based position; ties go to the smallest id."""
    if not 1 <= position <= instance.L:
        raise PathShapeError(
            f"position {position} outside lattice of {instance.L} positions"
        )
    return int(instance.best_token[position - 1]), float(instance.best_emission[position - 1])


def _finite_score(value, name: str) -> float:
    """``value`` as a float, or InstanceValidationError where it is ``+inf`` or NaN."""
    if not value < np.inf:  # NaN fails it too: a sum that overflowed, then met -inf
        raise InstanceValidationError([f"the {name} overflows to +inf"])
    return float(value)


def _hop_sum(instance: Instance, path) -> float:
    """``path_log_prob`` unchecked: ``+inf`` or NaN where the sum overflows.

    numpy warns of the overflow unless the caller has quieted it.
    """
    p = _checked_path(instance, path)
    pos = np.asarray(p.positions, dtype=np.intp) - 1
    if len(pos) == 1:
        return 0.0
    return float(np.sum(instance.log_transitions[pos[:-1], pos[1:]]))


def _checked_path(instance: Instance, path) -> DecodingPath:
    p = as_path(path)
    p.check_against(instance.L)
    return p
