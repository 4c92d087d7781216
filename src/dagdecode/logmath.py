"""Numerically stable log-space primitives shared across the package.

All probabilities in this package live in natural-log space; ``-inf``
encodes an impossible event. These helpers never warn on ``-inf`` inputs
and treat empty sums as impossible.
"""

from __future__ import annotations

import math

import numpy as np

LOG_ZERO = -math.inf


def logsumexp(values, axis=None):
    """log(sum(exp(values))) with max-shift stabilization.

    Sums over an empty set or over all ``-inf`` entries yield ``-inf``.
    Returns a plain float when ``axis`` is None or ``values`` is empty, an
    ndarray otherwise.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.size == 0:
        return LOG_ZERO
    shift = np.max(a, axis=axis, keepdims=True)
    # Rows with no finite entry would produce -inf - -inf = nan; shift by 0.
    safe_shift = np.where(np.isfinite(shift), shift, 0.0)
    total = np.sum(np.exp(a - safe_shift), axis=axis)
    with np.errstate(divide="ignore"):
        out = np.log(total) + np.squeeze(safe_shift, axis=axis)
    if axis is None:
        return float(out)
    return out


def log_from_prob(probs):
    """Elementwise natural log mapping exact zeros to ``-inf`` silently.

    Raises ValueError on negative or NaN input: these tables are
    probabilities, and a NaN is not an impossible event.
    """
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("probabilities must be non-negative")
    if np.any(np.isnan(p)):
        raise ValueError("probabilities must not be NaN")
    out = np.full(p.shape, LOG_ZERO)
    np.log(p, out=out, where=p > 0)
    return out


def entropy_nats(log_probs):
    """Shannon entropy -sum(p * log p) in nats of one log-space distribution.

    ``-inf`` entries carry zero mass and contribute nothing.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    finite = np.isfinite(lp)
    if not np.any(finite):
        return 0.0
    lp = lp[finite]
    return float(-np.sum(np.exp(lp) * lp))
