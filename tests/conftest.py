import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from dagdecode import (
    DecodingPath,
    EnumerationCapError,
    GeneratorConfig,
    Instance,
    InstanceFormatError,
    InstanceValidationError,
    decoders,
    generate_instance,
)
from dagdecode.lattice import NORMALIZATION_TOL, check_tokens, later_hops
from dagdecode.logmath import LOG_ZERO, logsumexp
from dagdecode.oracle import EnumerationResult

# Two fixed lattices used across the suite. The 2-position one admits a
# single path; the 4-position one has four paths whose products are easy
# to recompute by hand in the tests.

I2_TRANSITIONS = [[0.0, 1.0], [0.0, 0.0]]
I2_EMISSIONS = [[0.9, 0.1], [0.2, 0.8]]

I4_TRANSITIONS = [
    [0.0, 0.7, 0.2, 0.1],
    [0.0, 0.0, 0.6, 0.4],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, 0.0],
]
I4_EMISSIONS = [[0.9, 0.1], [0.4, 0.6], [0.8, 0.2], [0.3, 0.7]]


@pytest.fixture(scope="session", autouse=True)
def private_cache_home(tmp_path_factory):
    """Point ``XDG_CACHE_HOME`` at a fresh directory for the whole run.

    So the suite writes nothing under ``~``, and its first fast-path decode
    compiles the C forward pass from cold.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture
def i2() -> Instance:
    return Instance.from_probs(I2_TRANSITIONS, I2_EMISSIONS)


@pytest.fixture
def i4() -> Instance:
    return Instance.from_probs(I4_TRANSITIONS, I4_EMISSIONS)


@pytest.fixture
def table_builds(monkeypatch) -> list:
    """Modes of every build_viterbi_table call, whichever module binding made it."""
    original = decoders.build_viterbi_table
    builds = []

    def counting(instance, mode):
        builds.append(mode)
        return original(instance, mode)

    for name, module in list(sys.modules.items()):
        if name == "dagdecode" or name.startswith("dagdecode."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return builds


def run_python(*args, **env) -> subprocess.CompletedProcess:
    """A fresh interpreter on ``args`` that imports this package; failed (killed) after 60 s.

    Keyword arguments are set in its environment, over this process's.
    """
    src = str(Path(decoders.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=src, **env), capture_output=True, text=True, timeout=60,
    )


def traced_peak(call) -> int:
    """tracemalloc's peak, in bytes, over one ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def build_peak(inst: Instance, mode) -> int:
    """tracemalloc's peak, in bytes, over one ``build_viterbi_table(inst, mode)`` call."""
    return traced_peak(lambda: decoders.build_viterbi_table(inst, mode))


def with_transitions(inst: Instance, cells: dict) -> Instance:
    """An unvalidated copy of ``inst`` with each 0-based ``(row, col)`` log-transition set."""
    trans = inst.log_transitions.copy()
    for cell, value in cells.items():
        trans[cell] = value
    return Instance(L=inst.L, V=inst.V, log_transitions=trans, log_emissions=inst.log_emissions)


def random_instance(seed: int, L: int = 6, V: int = 3, sparsity: float = 0.0,
                    transition_concentration: float = 1.0,
                    emission_concentration: float = 1.0) -> Instance:
    return generate_instance(
        GeneratorConfig(
            L=L,
            V=V,
            seed=seed,
            sparsity=sparsity,
            transition_concentration=transition_concentration,
            emission_concentration=emission_concentration,
        )
    )


def random_batch(n: int, seed0: int = 0, **kwargs) -> list[Instance]:
    return [random_instance(seed0 + k, **kwargs) for k in range(n)]


def make_suite(count: int, seed0: int, lengths=(4, 6, 8), vocabs=(2, 5)) -> list[Instance]:
    """Generated instances cycling through ``lengths`` and ``vocabs``; every 4th is sparse."""
    return [
        generate_instance(
            GeneratorConfig(
                L=lengths[k % len(lengths)],
                V=vocabs[k % len(vocabs)],
                seed=seed0 + k,
                sparsity=0.35 if k % 4 == 0 else 0.0,
            )
        )
        for k in range(count)
    ]


@pytest.fixture(scope="module")
def suite_500() -> list[Instance]:
    return make_suite(500, seed0=31000)


def funnel(inst: Instance, a: int, twin_rows: bool) -> Instance:
    """Reshape ``inst`` so that every path visits 0-based position a or b = a + 1.

    Rows before a reach nothing beyond b, and column b copies column a. With
    ``twin_rows`` row a copies row b, so a and b are interchangeable and
    every best path has an equal-scoring twin of the same length. Without
    it a moves to b with probability 1 and both emit token 0 with
    probability 1, so every path through b alone has an equal-scoring twin
    one position longer. Needs 1 <= a <= L - 3.
    """
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
    return Instance.from_probs(trans, emis)


def hypothesis_fields(hyp) -> tuple:
    """Everything a hypothesis holds, log-probabilities as their exact ``repr``."""
    return hyp.path.positions, hyp.tokens, repr(hyp.path_logprob), repr(hyp.emission_logprob)


def reference_marginal(instance: Instance, tokens) -> float:
    """The marginal by the forward recursion over every cell of every step.

    The bit-identity reference for ``marginal_translation_log_prob``, which
    reads only the cells that can still reach the terminal. Needs a feasible
    token sequence.
    """
    toks = check_tokens(instance, tokens)
    L = instance.L
    hops = later_hops(instance.log_transitions)
    forward = np.full(L, LOG_ZERO)
    forward[0] = instance.log_emissions[0, toks[0]]
    for tok in toks[1:]:
        hopped = logsumexp(forward[:, None] + hops, axis=0)
        forward = hopped + instance.log_emissions[:, tok]
    return float(forward[L - 1])


def reference_generate_instance(config: GeneratorConfig) -> Instance:
    """``generate_instance`` with each row's successors and concentrations built in the loop.

    The byte-identity reference for the generator, which builds them once.
    """
    rng = np.random.default_rng(config.seed)
    L, V = config.L, config.V
    transitions = np.zeros((L, L))
    for t in range(L - 1):
        successors = np.arange(t + 1, L)
        forbid = int(config.sparsity * len(successors))
        forbid = min(forbid, len(successors) - 1)
        if forbid:
            dropped = rng.choice(len(successors), size=forbid, replace=False)
            successors = np.delete(successors, dropped)
        row = rng.dirichlet(np.full(len(successors), config.transition_concentration))
        transitions[t, successors] = row
    emissions = rng.dirichlet(np.full(V, config.emission_concentration), size=L)
    return Instance.from_probs(transitions, emissions, meta={"generator": asdict(config)})


def reference_lists_to_table(rows, name: str) -> np.ndarray:
    """``io._lists_to_table`` cell by cell: the reference for its one-call conversion."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InstanceFormatError(f"{name} must be a list of rows")
    width = {len(r) for r in rows}
    if len(width) > 1:
        raise InstanceFormatError(f"{name} rows have inconsistent lengths {sorted(width)}")
    out = np.full((len(rows), width.pop() if width else 0), LOG_ZERO)
    try:
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v is None:
                    continue
                if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                    raise InstanceFormatError(
                        f"{name}[{i}][{j}] must be a finite number or null, got {v!r}"
                    )
                out[i, j] = float(v)
    except OverflowError:
        raise InstanceFormatError(
            f"{name}[{i}][{j}] must be a finite number or null, got an integer out of float range"
        ) from None
    return out


def reference_validate(instance: Instance) -> list[str]:
    """``lattice.validate`` one row at a time: the reference for its blocked checks."""
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


# The oracle one path at a time, as it was written before it scored a block
# of paths as one array: the bit-identity reference for ``dagdecode.oracle``.
# Paths are tuples here; only each length's best becomes a DecodingPath.


def reference_paths(instance: Instance, cap: int = 16, length: int | None = None):
    """Every path's positions, by increasing length and lexicographically within one.

    Only the paths of ``length`` positions when it is given.
    """
    L = instance.L
    if L > cap:
        raise EnumerationCapError(f"lattice has {L} positions; enumeration capped at {cap}")
    if L == 1:
        if length in (None, 1):
            yield (1,)
        return
    for M in range(2, L + 1):
        if length in (None, M):
            for combo in combinations(range(2, L), M - 2):
                yield (1, *combo, L)


def _reference_hop_product(trans_prob: np.ndarray, positions) -> float:
    p = 1.0
    for a, b in zip(positions, positions[1:]):
        p *= trans_prob[a - 1, b - 1]
    return p


def _reference_finite(value, name: str):
    if not value < math.inf:
        raise InstanceValidationError([f"the {name} probability overflows to +inf"])
    return value


def _reference_best(instance: Instance, cap: int, score, name: str) -> EnumerationResult:
    best_per_length = {}
    count = 0
    for positions in reference_paths(instance, cap):
        count += 1
        p = score(positions)
        if p != p:  # NaN is inf x 0: an impossible path
            p = 0.0
        M = len(positions)
        if M not in best_per_length or p > best_per_length[M][1]:
            best_per_length[M] = (DecodingPath(positions), p)
    global_best = None
    for M in sorted(best_per_length):
        entry = best_per_length[M]
        _reference_finite(entry[1], name)
        if global_best is None or entry[1] >= global_best[1]:
            global_best = entry
    return EnumerationResult(
        best_per_length=best_per_length, global_best=global_best, path_count=count
    )


@np.errstate(over="ignore", invalid="ignore")
def reference_best_path(instance: Instance, cap: int = 16) -> EnumerationResult:
    """``brute_force_best_path`` as a loop over the paths."""
    trans = np.exp(instance.log_transitions)
    return _reference_best(instance, cap, lambda pos: _reference_hop_product(trans, pos), "path")


@np.errstate(over="ignore", invalid="ignore")
def reference_best_joint(instance: Instance, cap: int = 16) -> EnumerationResult:
    """``brute_force_best_joint`` as a loop over the paths."""
    trans = np.exp(instance.log_transitions)
    best_token_prob = np.exp(instance.log_emissions).max(axis=1)

    def score(pos):
        p = _reference_hop_product(trans, pos)
        for t in pos:
            p *= best_token_prob[t - 1]
        return p

    return _reference_best(instance, cap, score, "joint")


@np.errstate(over="ignore", invalid="ignore")
def reference_oracle_marginal(instance: Instance, tokens, cap: int = 16) -> float:
    """``brute_force_marginal`` as a loop over the paths of the tokens' length."""
    toks = check_tokens(instance, tokens)
    trans = np.exp(instance.log_transitions)
    emis = np.exp(instance.log_emissions)
    terms = []
    for positions in reference_paths(instance, cap, len(toks)):
        p = _reference_hop_product(trans, positions)
        for t, y in zip(positions, toks):
            p *= emis[t - 1, y]
        terms.append(p if p == p else 0.0)
    try:
        total = math.fsum(terms)
    except OverflowError:
        total = math.inf
    return _reference_finite(total, "marginal")
