"""Core value types: the lattice instance, decoding paths, and hypotheses.

A lattice instance is a pair of log-probability tables over ``L`` decoder
positions: an upper-triangular transition table between positions and a
per-position emission table over ``V`` vocabulary tokens. Neither table
holds NaN or ``+inf``: an instance refuses them when it is built, so no
decoder, score or check downstream meets one. Positions are 1-based
everywhere a human sees them; array indexing is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    Raises ``InstanceValidationError`` naming the first NaN or ``+inf``
    cell, 0-based in row-major order, transitions first. Any other value,
    ``-inf`` included, is accepted here; :func:`validate` checks the rest.
    """

    L: int
    V: int
    log_transitions: np.ndarray
    log_emissions: np.ndarray
    vocab: tuple[str, ...] | None = None
    meta: Mapping | None = None

    def __post_init__(self):
        if self.L < 1 or self.V < 1:
            raise ShapeError(f"L and V must be >= 1, got L={self.L} V={self.V}")
        trans = np.array(self.log_transitions, dtype=np.float64)
        emis = np.array(self.log_emissions, dtype=np.float64)
        if trans.shape != (self.L, self.L):
            raise ShapeError(
                f"log_transitions has shape {trans.shape}, expected {(self.L, self.L)}"
            )
        if emis.shape != (self.L, self.V):
            raise ShapeError(
                f"log_emissions has shape {emis.shape}, expected {(self.L, self.V)}"
            )
        for name, table in (("log_transitions", trans), ("log_emissions", emis)):
            if not table.max() < np.inf:  # one reduction; NaN fails it too
                i, j = np.argwhere(~(table < np.inf))[0]
                kind = "NaN" if np.isnan(table[i, j]) else "+inf"
                raise InstanceValidationError([f"{name}[{i}][{j}] is {kind}"])
        trans.setflags(write=False)
        emis.setflags(write=False)
        object.__setattr__(self, "log_transitions", trans)
        object.__setattr__(self, "log_emissions", emis)
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


def validate(instance: Instance) -> list[str]:
    """Check the distribution invariants; return one message per violation.

    An empty list means the instance is valid. Rows are reported 1-based.
    Checked per transition row t < L: entries at non-later positions are
    ``-inf`` (a finite one is reported, and every decoder and score ignores
    it), at least one successor is reachable, and the successor mass
    normalizes to 1 within ``NORMALIZATION_TOL`` (in log space). Row L must
    be entirely ``-inf``, and every emission row must normalize. NaN and
    ``+inf`` never get this far: :class:`Instance` refuses them.
    """
    violations: list[str] = []
    L = instance.L
    trans = instance.log_transitions

    for t in range(L):
        row = trans[t]
        if t == L - 1:
            if np.any(np.isfinite(row)):
                violations.append(f"transition row {L}: terminal row must be all -inf")
            continue
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
            continue
        residual = logsumexp(successors)
        if abs(residual) > NORMALIZATION_TOL:
            violations.append(
                f"transition row {t + 1}: normalization residual {residual:.3e} "
                f"exceeds {NORMALIZATION_TOL:.0e}"
            )

    for t in range(L):
        residual = logsumexp(instance.log_emissions[t])
        if not np.isfinite(residual) or abs(residual) > NORMALIZATION_TOL:
            violations.append(
                f"emission row {t + 1}: normalization residual {residual:.3e} "
                f"exceeds {NORMALIZATION_TOL:.0e}"
            )

    return violations


def later_hops(instance: Instance) -> np.ndarray:
    """``log_transitions`` with the diagonal and below (hops no path takes) set to ``-inf``."""
    return np.where(np.tri(instance.L, dtype=bool), LOG_ZERO, instance.log_transitions)
