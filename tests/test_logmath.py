import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dagdecode.logmath import LOG_ZERO, entropy_nats, log_from_prob, logsumexp


class TestLogsumexp:
    def test_matches_direct_sum(self):
        vals = [-1.0, -2.5, -0.3]
        expected = math.log(sum(math.exp(v) for v in vals))
        assert logsumexp(vals) == pytest.approx(expected, rel=1e-14)

    def test_all_neg_inf(self):
        assert logsumexp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO

    def test_empty(self):
        assert logsumexp([]) == LOG_ZERO

    def test_axis_reduction(self):
        table = np.array([[0.0, LOG_ZERO], [math.log(0.5), math.log(0.5)]])
        out = logsumexp(table, axis=1)
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(0.0)

    def test_axis_with_dead_row(self):
        table = np.array([[LOG_ZERO, LOG_ZERO], [0.0, LOG_ZERO]])
        out = logsumexp(table, axis=1)
        assert out[0] == LOG_ZERO
        assert out[1] == 0.0

    def test_no_overflow_on_large_magnitudes(self):
        assert logsumexp([-1e300, -1e300]) == pytest.approx(-1e300)

    @given(st.lists(st.floats(min_value=-700, max_value=0), min_size=1, max_size=20))
    def test_dominates_max(self, vals):
        out = logsumexp(vals)
        assert out >= max(vals)
        assert out <= max(vals) + math.log(len(vals)) + 1e-12


class TestLogFromProb:
    def test_zero_maps_to_neg_inf(self):
        out = log_from_prob([0.0, 0.5, 1.0])
        assert out[0] == LOG_ZERO
        assert out[1] == pytest.approx(math.log(0.5))
        assert out[2] == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_from_prob([-0.1])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            log_from_prob([0.5, math.nan])


class TestEntropy:
    def test_uniform(self):
        assert entropy_nats(log_from_prob([0.5, 0.5])) == pytest.approx(math.log(2))

    def test_deterministic(self):
        assert entropy_nats(log_from_prob([0.0, 1.0])) == 0.0

    def test_all_zero_mass(self):
        assert entropy_nats([LOG_ZERO, LOG_ZERO]) == 0.0

    def test_hand_value(self):
        expected = -(0.7 * math.log(0.7) + 0.2 * math.log(0.2) + 0.1 * math.log(0.1))
        assert entropy_nats(log_from_prob([0.7, 0.2, 0.1])) == pytest.approx(expected)
