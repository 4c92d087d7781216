"""Core value types: the lattice instance, decoding paths, and hypotheses.

A lattice instance is a pair of log-probability tables over ``L`` decoder
positions: an upper-triangular transition table between positions and a
per-position emission table over ``V`` vocabulary tokens. Positions are
1-based everywhere a human sees them; array indexing is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import PathShapeError, ShapeError, VocabError
from .logmath import log_from_prob, logsumexp

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
        to position ``t'+1``; entries at or below the diagonal must be
        ``-inf`` (paths only ever move to strictly later positions).
    log_emissions : array, shape (L, V)
        ``[t, y]`` is the log-probability of emitting token ``y`` at
        position ``t+1``.
    vocab : sequence of str, optional
        Display strings for the V token ids.
    meta : mapping, optional
        Free-form provenance carried through serialization.
    """

    L: int
    V: int
    log_transitions: np.ndarray
    log_emissions: np.ndarray
    vocab: tuple[str, ...] | None = None
    meta: Mapping | None = None

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.V < 1:
            raise ValueError(f"V must be >= 1, got {self.V}")
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
            log_transitions=log_from_prob(trans),
            log_emissions=log_from_prob(emis),
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
    """A decoded output: path, tokens, and the three log-scores.

    ``joint_logprob`` must equal ``path_logprob + emission_logprob`` exactly;
    use :meth:`from_scores` so the sum happens once.
    """

    path: DecodingPath
    tokens: tuple[int, ...]
    path_logprob: float
    emission_logprob: float
    joint_logprob: float

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(int(y) for y in self.tokens))
        if len(self.tokens) != len(self.path):
            raise ShapeError(
                f"{len(self.tokens)} tokens for a path of length {len(self.path)}"
            )
        if self.joint_logprob != self.path_logprob + self.emission_logprob:
            raise ValueError("joint_logprob must equal path_logprob + emission_logprob")

    @classmethod
    def from_scores(cls, path, tokens, path_logprob, emission_logprob) -> "Hypothesis":
        return cls(
            path=as_path(path),
            tokens=tuple(tokens),
            path_logprob=float(path_logprob),
            emission_logprob=float(emission_logprob),
            joint_logprob=float(path_logprob) + float(emission_logprob),
        )

    @property
    def length(self) -> int:
        return len(self.path)


def check_tokens(instance: Instance, tokens) -> np.ndarray:
    """Coerce a token sequence to an int array, rejecting out-of-vocab ids."""
    toks = np.asarray([int(y) for y in tokens], dtype=np.intp)
    if toks.size and (toks.min() < 0 or toks.max() >= instance.V):
        bad = toks[(toks < 0) | (toks >= instance.V)][0]
        raise VocabError(f"token id {int(bad)} outside vocabulary of size {instance.V}")
    return toks


def validate(instance: Instance) -> list[str]:
    """Check the distribution invariants; return one message per violation.

    An empty list means the instance is valid. Rows are reported 1-based.
    Checked per transition row t < L: entries at non-later positions are
    ``-inf``, at least one successor is reachable, and the successor mass
    normalizes to 1 within ``NORMALIZATION_TOL`` (in log space). Row L must
    be entirely ``-inf``, and every emission row must normalize. A table
    holding NaN is reported by its first NaN entry, 0-based as in the file.
    """
    violations: list[str] = []
    L = instance.L
    trans = instance.log_transitions

    for name, table in (("log_transitions", trans), ("log_emissions", instance.log_emissions)):
        nan = np.argwhere(np.isnan(table))
        if nan.size:
            i, j = nan[0]
            violations.append(f"{name}[{i}][{j}] is NaN")

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
