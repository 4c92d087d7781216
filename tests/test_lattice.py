import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagdecode import (
    DecodingPath,
    Hypothesis,
    Instance,
    InstanceValidationError,
    PathShapeError,
    ShapeError,
    VocabError,
    validate,
)
from dagdecode.lattice import NORMALIZATION_TOL, VALIDATE_BLOCK_ROWS, as_path, check_tokens
from dagdecode.logmath import LOG_ZERO, log_from_prob

from conftest import (
    I2_EMISSIONS,
    I2_TRANSITIONS,
    I4_EMISSIONS,
    I4_TRANSITIONS,
    random_batch,
    random_instance,
    reference_validate,
    traced_peak,
)


def validation_outcome(check, inst) -> tuple:
    """``check(inst)``'s messages and every warning it raises, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        messages = check(inst)
    return messages, [(w.category, str(w.message)) for w in caught]


#: 0-based rows on either side of the first two block edges of ``validate``.
EDGE_ROWS = [k * VALIDATE_BLOCK_ROWS + d for k in (1, 2) for d in (-2, -1, 0, 1)]
#: Residuals around the tolerance and around half of it, where blocks hand rows to the row check.
SHIFTS = [s * k * NORMALIZATION_TOL for s in (1, -1) for k in (0.45, 0.5, 0.55, 0.9, 1.0, 1.1)]


def damaged(inst: Instance, damage) -> Instance:
    """An unvalidated copy of ``inst`` with each ``(kind, row, value)`` of ``damage`` applied.

    Kinds: ``early`` sets a cell on or below the diagonal of the row, ``dead``
    empties its successors, ``shift`` adds ``value`` to its successors,
    ``terminal`` sets a cell of the last row, ``emission`` adds ``value`` to
    an emission row, ``silent`` empties one, ``huge`` sets its first two
    successors to ``value`` and ``-value``.
    """
    trans, emis = inst.log_transitions.copy(), inst.log_emissions.copy()
    L = inst.L
    for kind, row, value in damage:
        t = row % L
        if kind == "early":
            trans[t, t // 2] = value
        elif kind == "dead":
            trans[t, t + 1 :] = LOG_ZERO
        elif kind == "shift":
            trans[t, t + 1 :] += value
        elif kind == "terminal":
            trans[L - 1, t] = value
        elif kind == "emission":
            emis[t] += value
        elif kind == "silent":
            emis[t] = LOG_ZERO
        elif kind == "huge" and t + 2 < L:
            trans[t, t + 1 : t + 3] = value, -value
    return Instance(L=L, V=inst.V, log_transitions=trans, log_emissions=emis)


class TestValidateBlocks:
    """Blocked ``validate`` gives the row-by-row loop's messages and warnings, in its order."""

    def test_suite(self, suite_500):
        for inst in suite_500:
            assert validate(inst) == reference_validate(inst) == []

    @pytest.mark.parametrize("shift", SHIFTS)
    def test_residuals_near_the_tolerance(self, shift):
        inst = random_instance(5, L=70, V=6, sparsity=0.3)
        for row in (0, 1, *EDGE_ROWS, 68):
            for kind in ("shift", "emission"):
                broken = damaged(inst, [(kind, row, shift)])
                assert validate(broken) == reference_validate(broken)

    @pytest.mark.parametrize("L", [1, 2, 63, 64, 65, VALIDATE_BLOCK_ROWS * 2 + 1])
    def test_each_check_at_block_edges(self, L):
        inst = random_instance(L, L=L, V=3, sparsity=0.2)
        rows = sorted({0, 1, L - 2, L - 1, *EDGE_ROWS} & set(range(L)))
        for kind, value in [("early", -0.5), ("dead", None), ("shift", 0.1), ("terminal", -2.0),
                            ("emission", -0.3), ("silent", None), ("huge", 1e308)]:
            broken = damaged(inst, [(kind, row, value) for row in rows])
            outcome = validation_outcome(validate, broken)
            assert outcome == validation_outcome(reference_validate, broken)
            # Only the terminal row takes damage at L = 1, and "huge" needs 3 positions.
            if kind in ("early", "terminal", "emission", "silent") or L > 1 + (kind == "huge"):
                assert outcome[0], kind
        assert validate(inst) == reference_validate(inst) == []

    def test_every_check_at_once(self):
        inst = random_instance(3, L=130, V=4)
        damage = [("early", 3, -1.0), ("dead", 3, None), ("early", 64, 0.0),
                  ("shift", 64, 2e-6), ("terminal", 7, -1.0), ("emission", 129, 1e-5),
                  ("silent", 0, None), ("huge", 100, 1e308)]
        broken = damaged(inst, damage)
        outcome = validation_outcome(validate, broken)
        assert outcome == validation_outcome(reference_validate, broken)
        assert len(outcome[0]) == 8
        assert outcome[1], "the huge row's overflow warns, as it does row by row"

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_property(self, data):
        L = data.draw(st.integers(1, 2 * VALIDATE_BLOCK_ROWS + 3), label="L")
        inst = random_instance(data.draw(st.integers(0, 1000), label="seed"), L=L, V=3,
                               sparsity=data.draw(st.sampled_from([0.0, 0.5]), label="sparsity"))
        damage = data.draw(st.lists(st.tuples(
            st.sampled_from(["early", "dead", "shift", "terminal", "emission", "silent", "huge"]),
            st.integers(0, L - 1),
            st.one_of(st.sampled_from(SHIFTS + [1e308, -1e300]),
                      st.floats(-1.0, 1.0, allow_nan=False)),
        ), max_size=4), label="damage")
        broken = damaged(inst, damage)
        assert validation_outcome(validate, broken) == validation_outcome(
            reference_validate, broken
        )


class TestInstance:
    def test_valid_instances_pass(self, i2, i4):
        assert validate(i2) == []
        assert validate(i4) == []
        # Cross-check row masses with compensated summation, not logsumexp.
        for t in range(i4.L - 1):
            row = i4.log_transitions[t, t + 1 :]
            mass = math.fsum(math.exp(v) for v in row if v > LOG_ZERO)
            assert abs(mass - 1.0) < 1e-12

    def test_generator_outputs_validate_with_independent_summation(self):
        # Recompute each row mass with math.fsum on exponentials rather
        # than trusting the package's logsumexp.
        for inst in random_batch(5, seed0=11, L=7, V=4, sparsity=0.4):
            assert validate(inst) == []
            for t in range(inst.L - 1):
                row = inst.log_transitions[t, t + 1 :]
                mass = math.fsum(math.exp(v) for v in row if v > LOG_ZERO)
                assert mass == pytest.approx(1.0, abs=1e-9)

    def test_denormalized_row_named_with_row_index(self, i2):
        trans = np.array(i2.log_transitions)
        trans.setflags(write=True)
        trans[0, 1] = math.log(0.5)
        broken = Instance(L=2, V=2, log_transitions=trans, log_emissions=i2.log_emissions)
        violations = validate(broken)
        assert len(violations) == 1
        assert "row 1" in violations[0]
        assert "normalization" in violations[0]

    def test_terminal_row_must_be_empty(self, i2):
        trans = np.array(i2.log_transitions)
        trans.setflags(write=True)
        trans[1, 1] = 0.0
        broken = Instance(L=2, V=2, log_transitions=trans, log_emissions=i2.log_emissions)
        assert any("terminal" in v for v in validate(broken))

    def test_lower_triangle_entries_flagged(self, i4):
        trans = np.array(i4.log_transitions)
        trans.setflags(write=True)
        trans[2, 1] = math.log(0.5)
        broken = Instance(L=4, V=2, log_transitions=trans, log_emissions=i4.log_emissions)
        assert any("non-later" in v for v in validate(broken))

    def test_dead_end_flagged(self, i4):
        trans = np.array(i4.log_transitions)
        trans.setflags(write=True)
        trans[1, :] = LOG_ZERO
        broken = Instance(L=4, V=2, log_transitions=trans, log_emissions=i4.log_emissions)
        assert any("dead end" in v and "row 2" in v for v in validate(broken))

    def test_emission_row_checked(self, i2):
        emis = np.array(i2.log_emissions)
        emis.setflags(write=True)
        emis[1, 1] = math.log(0.5)
        broken = Instance(L=2, V=2, log_transitions=i2.log_transitions, log_emissions=emis)
        assert any("emission row 2" in v for v in validate(broken))

    @pytest.mark.parametrize(
        "table, where",
        [("log_transitions", (0, 2)), ("log_transitions", (2, 0)), ("log_emissions", (1, 0))],
    )
    def test_nan_entry_named(self, i4, table, where):
        # Refused at construction, so validate and the decoders never see it.
        tables = {
            "log_transitions": np.array(i4.log_transitions),
            "log_emissions": np.array(i4.log_emissions),
        }
        tables[table][where] = math.nan
        message = f"instance failed validation: {table}[{where[0]}][{where[1]}] is NaN"
        with pytest.raises(InstanceValidationError) as caught:
            Instance(L=4, V=2, **tables)
        assert str(caught.value) == message

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_non_finite_cell_refused_naming_the_first(self, data):
        inst = random_instance(
            data.draw(st.integers(0, 2**32 - 1)), L=data.draw(st.integers(1, 7)),
            V=data.draw(st.integers(1, 4)), sparsity=data.draw(st.floats(0.0, 0.5)),
        )
        names = ("log_transitions", "log_emissions")
        tables = [np.array(inst.log_transitions), np.array(inst.log_emissions)]
        bad = {}
        for _ in range(data.draw(st.integers(1, 3))):
            k = data.draw(st.integers(0, 1))
            rows, cols = tables[k].shape
            cell = (k, data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1)))
            bad[cell] = data.draw(st.sampled_from([math.nan, math.inf]))
        for (k, i, j), value in bad.items():
            tables[k][i, j] = value
        # Transitions first, then cells in row-major order.
        k, i, j = min(bad)
        kind = "NaN" if math.isnan(bad[k, i, j]) else "+inf"
        with pytest.raises(InstanceValidationError) as caught:
            Instance(L=inst.L, V=inst.V, log_transitions=tables[0], log_emissions=tables[1])
        assert str(caught.value) == f"instance failed validation: {names[k]}[{i}][{j}] is {kind}"

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_joint_overflow_refused_naming_the_first(self, data):
        # Every cell counts, on and below the diagonal too, as for NaN and +inf.
        inst = random_instance(
            data.draw(st.integers(0, 2**32 - 1)), L=data.draw(st.integers(1, 7)),
            V=data.draw(st.integers(1, 4)),
        )
        L, V = inst.L, inst.V
        trans, emis = np.array(inst.log_transitions), np.array(inst.log_emissions)
        huge = st.sampled_from([1e308, 1.7e308, -1e308])
        for _ in range(data.draw(st.integers(1, 4))):
            trans[data.draw(st.integers(0, L - 1)), data.draw(st.integers(0, L - 1))] = data.draw(huge)
        for _ in range(data.draw(st.integers(1, 3))):
            emis[data.draw(st.integers(0, L - 1)), data.draw(st.integers(0, V - 1))] = data.draw(huge)
        over = [(i, j) for i in range(L) for j in range(L)
                if float(trans[i, j]) + max(float(e) for e in emis[j]) == math.inf]
        if not over:
            inst = Instance(L=L, V=V, log_transitions=trans, log_emissions=emis)
            with np.errstate(over="ignore"):  # a sum may still overflow to -inf
                assert not np.isposinf(inst.log_transitions + inst.best_emission).any()
            return
        i, j = over[0]
        message = (f"instance failed validation: log_transitions[{i}][{j}] plus the best of "
                   f"log_emissions[{j}] overflows to +inf")
        with pytest.raises(InstanceValidationError) as caught:
            Instance(L=L, V=V, log_transitions=trans, log_emissions=emis)
        assert str(caught.value) == message

    def test_from_probs_never_overflows(self):
        # A log-probability is at most log(1.8e308) = 709.8, so no JOINT weight overflows.
        biggest = np.finfo(np.float64).max
        inst = Instance.from_probs([[0.0, biggest], [0.0, 0.0]], [[biggest, 1.0]] * 2)
        assert inst.best_emission.tolist() == [math.log(biggest)] * 2
        assert inst.log_transitions[0, 1] + inst.best_emission[1] < 1420

    def test_best_tokens_match_row_argmax(self, suite_500):
        for inst in suite_500:
            assert np.array_equal(inst.best_token, np.argmax(inst.log_emissions, axis=1))
            assert np.array_equal(inst.best_emission, np.max(inst.log_emissions, axis=1))

    def test_tied_row_gives_smallest_id(self):
        inst = Instance.from_probs([[0.0]], [[0.2, 0.4, 0.4]])
        assert inst.best_token.tolist() == [1]
        assert inst.best_emission.tolist() == [math.log(0.4)]

    def test_best_tokens_are_frozen(self, i2):
        with pytest.raises(ValueError):
            i2.best_token[0] = 1
        with pytest.raises(ValueError):
            i2.best_emission[0] = 0.0
        with pytest.raises(AttributeError):
            i2.best_token = np.zeros(2, dtype=np.intp)

    def test_tables_are_frozen(self, i2):
        with pytest.raises(ValueError):
            i2.log_transitions[0, 1] = 0.0
        with pytest.raises(ValueError):
            i2.log_emissions[0, 0] = 0.0

    @pytest.mark.parametrize("writeable", [True, False])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_tables_are_copied(self, i4, writeable, order):
        # Only the tables io has just built are kept as they are.
        trans = np.array(i4.log_transitions, order=order)
        emis = np.array(i4.log_emissions, order=order)
        for table in (trans, emis):
            table.setflags(write=writeable)
        inst = Instance(L=4, V=2, log_transitions=trans, log_emissions=emis)
        for table, kept in ((trans, inst.log_transitions), (emis, inst.log_emissions)):
            assert not np.shares_memory(table, kept)
            assert table.flags.writeable == writeable
            assert not kept.flags.writeable
            assert np.array_equal(table, kept)

    @pytest.mark.parametrize("writeable", [True, False])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_from_probs_never_aliases_caller_tables(self, writeable, order):
        # from_probs keeps the log tables it has just built, never the caller's arrays.
        trans = np.array(I4_TRANSITIONS, order=order)
        emis = np.array(I4_EMISSIONS, order=order)
        for table in (trans, emis):
            table.setflags(write=writeable)
        inst = Instance.from_probs(trans, emis)
        for table, kept in ((trans, inst.log_transitions), (emis, inst.log_emissions)):
            assert not np.shares_memory(table, kept)
            assert table.flags.writeable == writeable
            assert not kept.flags.writeable and kept.flags.c_contiguous
            assert kept.tobytes() == log_from_prob(table).tobytes()

    def test_from_probs_copies_no_log_table(self):
        # A generated L=512 instance: the probabilities, then one log copy of each
        # table. A second copy took the peak to 3.0x what is kept.
        random_instance(1000, L=512, V=32)
        peak = traced_peak(lambda: random_instance(1000, L=512, V=32))
        inst = random_instance(1000, L=512, V=32)
        assert peak < 2.5 * (inst.log_transitions.nbytes + inst.log_emissions.nbytes)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Instance(L=3, V=2, log_transitions=np.zeros((2, 2)), log_emissions=np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            Instance(L=2, V=3, log_transitions=np.zeros((2, 2)), log_emissions=np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="transitions must be square"):
            Instance.from_probs(np.zeros((2, 3)), I2_EMISSIONS)
        with pytest.raises(ShapeError, match="must match transitions size 2"):
            Instance.from_probs(I2_TRANSITIONS, np.zeros((3, 2)))

    @pytest.mark.parametrize("L, V", [(0, 2), (2, 0)])
    def test_empty_size_is_shape_error(self, L, V):
        with pytest.raises(ShapeError, match=f"got L={L} V={V}"):
            Instance(L=L, V=V, log_transitions=np.zeros((L, L)), log_emissions=np.zeros((L, V)))

    @pytest.mark.parametrize("table", ["transitions", "emissions"])
    def test_negative_probability_names_table(self, table):
        tables = {"transitions": np.array(I2_TRANSITIONS), "emissions": np.array(I2_EMISSIONS)}
        tables[table][0, 1] = -0.5
        with pytest.raises(InstanceValidationError, match=f"{table}: probabilities"):
            Instance.from_probs(**tables)

    @pytest.mark.parametrize("table", ["transitions", "emissions"])
    def test_nan_probability_names_table(self, table):
        # A NaN is reported as such, not read as an impossible (-inf) event.
        tables = {"transitions": np.array(I2_TRANSITIONS), "emissions": np.array(I2_EMISSIONS)}
        tables[table][0, 1] = math.nan
        message = f"{table}: probabilities must not be NaN"
        with pytest.raises(InstanceValidationError, match=message):
            Instance.from_probs(**tables)

    @pytest.mark.parametrize("table", ["transitions", "emissions"])
    def test_infinite_probability_names_its_cell(self, table):
        tables = {"transitions": np.array(I2_TRANSITIONS), "emissions": np.array(I2_EMISSIONS)}
        tables[table][0, 1] = math.inf
        message = f"instance failed validation: log_{table}[0][1] is +inf"
        with pytest.raises(InstanceValidationError) as caught:
            Instance.from_probs(**tables)
        assert str(caught.value) == message

    def test_non_integral_size_is_shape_error(self, i2):
        # L=4.0 once failed with an untyped IndexError, and V=2.0 was kept as a float.
        for L, V, message in [
            (4.0, 2, "L must be an integer, got 4.0"),
            (4, 2.0, "V must be an integer, got 2.0"),
            ("4", 2, "L must be an integer, got '4'"),
        ]:
            with pytest.raises(ShapeError) as caught:
                Instance(L=L, V=V, log_transitions=np.zeros((4, 4)),
                         log_emissions=np.zeros((4, 2)))
            assert str(caught.value) == message
        sizes = Instance(L=np.int64(2), V=np.int32(2), log_transitions=i2.log_transitions,
                         log_emissions=i2.log_emissions)
        assert sizes == i2

    def test_not_equal_to_other_types(self, i2):
        assert i2.__eq__(3) is NotImplemented
        assert i2 != 3

    def test_vocab_length_checked(self):
        with pytest.raises(ShapeError):
            Instance.from_probs(I2_TRANSITIONS, I2_EMISSIONS, vocab=["a"])

    def test_single_position_lattice(self):
        inst = Instance.from_probs([[0.0]], [[0.25, 0.75]])
        assert validate(inst) == []


class TestDecodingPath:
    def test_must_start_at_one(self):
        with pytest.raises(PathShapeError):
            DecodingPath((2, 3))
        with pytest.raises(PathShapeError, match="path is empty"):
            DecodingPath(())

    def test_must_increase(self):
        with pytest.raises(PathShapeError):
            DecodingPath((1, 3, 2, 4))
        with pytest.raises(PathShapeError):
            DecodingPath((1, 1))

    def test_terminal_check(self, i4):
        DecodingPath((1, 2, 4)).check_against(4)
        with pytest.raises(PathShapeError):
            DecodingPath((1, 2, 3)).check_against(4)

    def test_single_position_path(self):
        path = DecodingPath((1,))
        path.check_against(1)
        assert len(path) == 1

    def test_non_integral_position_refused(self):
        # int() once truncated 2.9 to 2 and read the string "14" as the path (1, 4).
        for positions, bad in [((1, 2.9, 4), 2.9), ((1.0, 4), 1.0), ("14", "1"),
                               ((1, np.float64(3), 4), np.float64(3))]:
            with pytest.raises(PathShapeError) as caught:
                DecodingPath(positions)
            assert str(caught.value) == f"path position must be an integer, got {bad!r}"
        path = DecodingPath(np.array([1, 3, 4]))
        assert path.positions == (1, 3, 4)
        assert {type(p) for p in path.positions} == {int}

    def test_not_a_sequence_refused(self):
        for positions in (4, None, 2.5):
            with pytest.raises(PathShapeError) as caught:
                as_path(positions)
            assert str(caught.value) == f"path positions must be a sequence, got {positions!r}"
        assert as_path(p for p in (1, 2)) == DecodingPath((1, 2))

    @given(st.lists(st.integers(min_value=2, max_value=40), min_size=0, max_size=8,
                    unique=True))
    def test_sorted_interior_always_accepted(self, interior):
        positions = (1, *sorted(interior), 41)
        path = DecodingPath(positions)
        assert list(path) == list(positions)


class TestTokens:
    def test_out_of_range_rejected(self, i2):
        with pytest.raises(VocabError):
            check_tokens(i2, [0, 2])
        with pytest.raises(VocabError):
            check_tokens(i2, [-1])

    @pytest.mark.parametrize("big", [10**30, -(10**30)], ids=["plus", "minus"])
    def test_huge_id_rejected(self, i2, big):
        with pytest.raises(VocabError, match=f"token id {big} outside"):
            check_tokens(i2, [0, big])

    def test_valid_pass_through(self, i2):
        assert list(check_tokens(i2, [1, 0])) == [1, 0]

    def test_non_integral_id_refused(self, i2):
        # int() once truncated 1.9 to 1 and read the string "01" as the tokens [0, 1].
        for tokens, bad in [([1.9, 0], 1.9), ("01", "0"), ([0, True, 0.0], 0.0)]:
            with pytest.raises(VocabError) as caught:
                check_tokens(i2, tokens)
            assert str(caught.value) == f"token id must be an integer, got {bad!r}"
        assert list(check_tokens(i2, np.array([1, 0], dtype=np.int32))) == [1, 0]

    def test_not_a_sequence_refused(self, i2):
        with pytest.raises(VocabError, match=r"^token ids must be a sequence, got 3$"):
            check_tokens(i2, 3)
        with pytest.raises(VocabError, match=r"^token ids must be a sequence, got 5$"):
            Hypothesis((1, 2), 5, 0.0, 0.0)


class TestHypothesis:
    def test_joint_logprob_is_the_sum(self):
        hyp = Hypothesis((1, 2), [0, 1], -1.0, -2.0)
        assert hyp.path == DecodingPath((1, 2))
        assert hyp.tokens == (0, 1)
        assert hyp.joint_logprob == -3.0

    def test_token_length_must_match_path(self):
        with pytest.raises(ShapeError):
            Hypothesis((1, 2), [0], -1.0, -2.0)

    def test_non_integral_token_refused(self):
        # int() once made the tokens (0.7, 1.2) into (0, 1).
        with pytest.raises(VocabError, match="token id must be an integer, got 0.7"):
            Hypothesis((1, 4), (0.7, 1.2), 0.0, 0.0)
        with pytest.raises(PathShapeError, match="path position must be an integer, got 4.5"):
            Hypothesis((1, 4.5), (0, 1), 0.0, 0.0)
