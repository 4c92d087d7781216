"""Core value types: the lattice instance, decoding paths, and hypotheses.

A lattice instance is a pair of log-probability tables over ``L`` decoder
positions: an upper-triangular transition table between positions and a
per-position emission table over ``V`` vocabulary tokens. Neither table
holds NaN or ``+inf``, nor overflows a JOINT weight: an instance refuses
them when it is built, so no decoder, score or check downstream meets one.
Positions are 1-based everywhere a human sees them; array indexing is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InstanceValidationError, PathShapeError, ShapeError, VocabError
from .logmath import LOG_ZERO, log_from_prob, logsumexp

#: Tolerance on |logsumexp(row)| for a row to count as normalized.
NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Instance:
    """One decoding problem: lattice size, vocab size, and the two log tables.

    Parameters
    ----------
    L : int
        Number of decoder positions (>= 1).
    V : int
        Vocabulary size (>= 1).
    log_transitions : array, shape (L, L)
        ``[t, t']`` is the log-probability of hopping from position ``t+1``
        to position ``t'+1``. Paths only move to strictly later positions:
        finite entries on or below the diagonal are reported by
        :func:`validate` and ignored by every decoder and score.
    log_emissions : array, shape (L, V)
        ``[t, y]`` is the log-probability of emitting token ``y`` at
        position ``t+1``.
    vocab : sequence of str, optional
        Display strings for the V token ids.
    meta : mapping, optional
        Free-form provenance carried through serialization.

    Both tables are kept as read-only, C-ordered float64 copies, with the
    read-only per-position ``best_token`` (smallest id on ties) and
    ``best_emission`` (its log-probability). A JOINT hop t -> u weighs
    ``log_transitions[t, u] + best_emission[u]``.

    Raises ``InstanceValidationError`` naming the first NaN or ``+inf``
    cell, 0-based in row-major order, transitions first, then the first
    cell whose JOINT weight overflows to ``+inf``. Any other value, ``-inf``
    included, is accepted here; :func:`validate` checks the rest.
    """

    L: int
    V: int
    log_transitions: np.ndarray
    log_emissions: np.ndarray
    vocab: tuple[str, ...] | None = None
    meta: Mapping | None = None
    best_token: np.ndarray = field(init=False, repr=False)
    best_emission: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.L < 1 or self.V < 1:
            raise ShapeError(f"L and V must be >= 1, got L={self.L} V={self.V}")
        # C order, whatever the input's: the compiled pass reads rows in place.
        trans = np.array(self.log_transitions, dtype=np.float64, order="C")
        emis = np.array(self.log_emissions, dtype=np.float64, order="C")
        if trans.shape != (self.L, self.L):
            raise ShapeError(
                f"log_transitions has shape {trans.shape}, expected {(self.L, self.L)}"
            )
        if emis.shape != (self.L, self.V):
            raise ShapeError(
                f"log_emissions has shape {emis.shape}, expected {(self.L, self.V)}"
            )
        tops = []
        for name, table in (("log_transitions", trans), ("log_emissions", emis)):
            tops.append(float(table.max()))
            if not tops[-1] < np.inf:  # one reduction; NaN fails it too
                i, j = np.argwhere(~(table < np.inf))[0]
                kind = "NaN" if np.isnan(table[i, j]) else "+inf"
                raise InstanceValidationError([f"{name}[{i}][{j}] is {kind}"])
        best_token = emis.argmax(axis=1)
        best_emission = emis[np.arange(self.L), best_token]
        # Only a pair of table maxima that overflows needs the L x L sum.
        if not tops[0] + tops[1] < np.inf:  # Python floats: no warning
            with np.errstate(over="ignore"):
                over = np.argwhere(trans + best_emission == np.inf)
            if len(over):
                i, j = over[0]
                raise InstanceValidationError([f"log_transitions[{i}][{j}] plus the best "
                                               f"of log_emissions[{j}] overflows to +inf"])
        for name, value in (("log_transitions", trans), ("log_emissions", emis),
                            ("best_token", best_token), ("best_emission", best_emission)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        if self.vocab is not None:
            vocab = tuple(str(w) for w in self.vocab)
            if len(vocab) != self.V:
                raise ShapeError(f"vocab has {len(vocab)} entries, expected {self.V}")
            object.__setattr__(self, "vocab", vocab)

    @classmethod
    def from_probs(cls, transitions, emissions, vocab=None, meta=None) -> "Instance":
        """Build an instance from linear-space tables; zeros become ``-inf``."""
        trans = np.asarray(transitions, dtype=np.float64)
        if trans.ndim != 2 or trans.shape[0] != trans.shape[1]:
            raise ShapeError(f"transitions must be square, got shape {trans.shape}")
        emis = np.asarray(emissions, dtype=np.float64)
        if emis.ndim != 2 or emis.shape[0] != trans.shape[0]:
            raise ShapeError(
                f"emissions rows ({emis.shape}) must match transitions size {trans.shape[0]}"
            )
        return cls(
            L=trans.shape[0],
            V=emis.shape[1],
            log_transitions=_log_table(trans, "transitions"),
            log_emissions=_log_table(emis, "emissions"),
            vocab=vocab,
            meta=meta,
        )

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.L == other.L
            and self.V == other.V
            and np.array_equal(self.log_transitions, other.log_transitions)
            and np.array_equal(self.log_emissions, other.log_emissions)
            and self.vocab == other.vocab
        )


def _log_table(probs: np.ndarray, name: str) -> np.ndarray:
    try:
        return log_from_prob(probs)
    except ValueError as exc:
        raise InstanceValidationError([f"{name}: {exc}"]) from exc


@dataclass(frozen=True)
class DecodingPath:
    """Strictly increasing 1-based position sequence starting at position 1.

    The terminal constraint (last position == L) depends on a lattice and is
    checked by :meth:`check_against`.
    """

    positions: tuple[int, ...]

    def __post_init__(self):
        pos = tuple(int(p) for p in self.positions)
        object.__setattr__(self, "positions", pos)
        if not pos:
            raise PathShapeError("path is empty")
        if pos[0] != 1:
            raise PathShapeError(f"path must start at position 1, got {pos[0]}")
        for a, b in zip(pos, pos[1:]):
            if b <= a:
                raise PathShapeError(f"path not strictly increasing at {a} -> {b}")

    def check_against(self, L: int) -> None:
        """Raise PathShapeError unless the path ends exactly at position L."""
        if self.positions[-1] != L:
            raise PathShapeError(
                f"path must end at terminal position {L}, got {self.positions[-1]}"
            )

    def __len__(self):
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)

    def __getitem__(self, i):
        return self.positions[i]


def as_path(path) -> DecodingPath:
    """Coerce a position sequence into a DecodingPath, validating its shape."""
    if isinstance(path, DecodingPath):
        return path
    return DecodingPath(tuple(path))


@dataclass(frozen=True)
class Hypothesis:
    """A decoded output: path, tokens, and their path and emission log-scores."""

    path: DecodingPath
    tokens: tuple[int, ...]
    path_logprob: float
    emission_logprob: float

    def __post_init__(self):
        object.__setattr__(self, "path", as_path(self.path))
        object.__setattr__(self, "tokens", tuple(int(y) for y in self.tokens))
        if len(self.tokens) != len(self.path):
            raise ShapeError(
                f"{len(self.tokens)} tokens for a path of length {len(self.path)}"
            )

    @property
    def joint_logprob(self) -> float:
        """``path_logprob + emission_logprob``, summed on each read."""
        return self.path_logprob + self.emission_logprob

    @property
    def length(self) -> int:
        return len(self.path)


def check_tokens(instance: Instance, tokens) -> np.ndarray:
    """Coerce a token sequence to an int array, rejecting out-of-vocab ids."""
    ids = [int(y) for y in tokens]
    try:
        toks = np.asarray(ids, dtype=np.intp)
    except OverflowError:
        toks = None
    if toks is None or (toks.size and (toks.min() < 0 or toks.max() >= instance.V)):
        bad = next(y for y in ids if not 0 <= y < instance.V)
        raise VocabError(f"token id {bad} outside vocabulary of size {instance.V}")
    return toks


#: Rows per block in :func:`validate`: its temporaries hold a few blocks of
#: rows, so they grow with L, never with L**2.
VALIDATE_BLOCK_ROWS = 32


def validate(instance: Instance) -> list[str]:
    """Check the distribution invariants; return one message per violation.

    An empty list means the instance is valid. Rows are reported 1-based.
    Checked per transition row t < L: entries at non-later positions are
    ``-inf`` (a finite one is reported, and every decoder and score ignores
    it), at least one successor is reachable, and the successor mass
    normalizes to 1 within ``NORMALIZATION_TOL`` (in log space). Row L must
    be entirely ``-inf``, and every emission row must normalize. NaN and
    ``+inf`` never get this far: :class:`Instance` refuses them.

    The checks run in numpy over blocks of ``VALIDATE_BLOCK_ROWS`` rows. A
    block's log-sum-exp need not round as one row's does, so each row it
    flags (a finite entry on or below the diagonal, no finite successor, or
    a residual that is not finite or exceeds ``NORMALIZATION_TOL / 2``) is
    checked again on its own, and only that check decides and words the
    message. A row the block passes has a residual within ``TOL / 2`` plus
    rounding, so the row check would pass it too.
    """
    L = instance.L
    trans, emis = instance.log_transitions, instance.log_emissions
    violations: list[str] = []
    columns = np.arange(L)
    for lo in range(0, L - 1, VALIDATE_BLOCK_ROWS):
        block = trans[lo : min(lo + VALIDATE_BLOCK_ROWS, L - 1)]
        early = columns <= np.arange(lo, lo + len(block))[:, None]
        flagged = (np.isfinite(block) & early).any(axis=1)
        flagged |= _loose(np.where(early, LOG_ZERO, block))
        for t in (lo + np.flatnonzero(flagged)).tolist():
            violations.extend(_transition_row_violations(trans[t], t))
    if np.any(np.isfinite(trans[L - 1])):
        violations.append(f"transition row {L}: terminal row must be all -inf")
    for lo in range(0, L, VALIDATE_BLOCK_ROWS):
        block = emis[lo : lo + VALIDATE_BLOCK_ROWS].copy()
        for t in (lo + np.flatnonzero(_loose(block))).tolist():
            residual = logsumexp(emis[t])
            if not np.isfinite(residual) or abs(residual) > NORMALIZATION_TOL:
                violations.append(
                    f"emission row {t + 1}: normalization residual {residual:.3e} "
                    f"exceeds {NORMALIZATION_TOL:.0e}"
                )
    return violations


def _loose(rows: np.ndarray) -> np.ndarray:
    """Per row, whether its log-sum-exp residual may exceed ``NORMALIZATION_TOL``.

    True where the blocked residual is not finite or exceeds half the
    tolerance. Overwrites ``rows``, so that the block needs no second
    temporary. Quiet: a row whose own check warns (an overflow in its
    shift) is flagged, and warns when that check runs.
    """
    top = rows.max(axis=1)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(all="ignore"):
        np.subtract(rows, shift[:, None], out=rows)
        np.exp(rows, out=rows)
        residual = np.log(rows.sum(axis=1)) + shift
    return ~(np.abs(residual) <= NORMALIZATION_TOL / 2)


def _transition_row_violations(row: np.ndarray, t: int) -> list[str]:
    """The messages for transition row ``t`` (0-based) of L, ``t < L - 1``."""
    violations = []
    bad = np.isfinite(row[: t + 1])
    if np.any(bad):
        where = np.flatnonzero(bad) + 1
        violations.append(
            f"transition row {t + 1}: finite entries at non-later positions "
            f"{[int(w) for w in where]}"
        )
    successors = row[t + 1 :]
    if not np.any(np.isfinite(successors)):
        violations.append(f"transition row {t + 1}: dead end (no finite successor)")
        return violations
    residual = logsumexp(successors)
    if abs(residual) > NORMALIZATION_TOL:
        violations.append(
            f"transition row {t + 1}: normalization residual {residual:.3e} "
            f"exceeds {NORMALIZATION_TOL:.0e}"
        )
    return violations


def later_hops(log_transitions: np.ndarray) -> np.ndarray:
    """``log_transitions`` with the diagonal and below (hops no path takes) set to ``-inf``."""
    return np.where(np.tri(len(log_transitions), dtype=bool), LOG_ZERO, log_transitions)
