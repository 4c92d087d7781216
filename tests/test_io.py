import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagdecode import (
    GeneratorConfig,
    GeneratorConfigError,
    Instance,
    InstanceFormatError,
    InstanceValidationError,
    ShapeError,
    entropy_stats,
    generate_instance,
    parse_instance,
    save_instance,
    serialize_instance,
    validate,
)
from dagdecode.io import _lists_to_table, _table_to_lists, instance_from_dict, instance_to_dict
from dagdecode.logmath import LOG_ZERO

from conftest import (
    random_batch,
    random_instance,
    reference_generate_instance,
    reference_lists_to_table,
)


def conversion_outcome(convert, rows):
    """``convert(rows, "t")``'s dtype, shape and bytes, or its exception's type and message."""
    try:
        out = convert(rows, "t")
    except Exception as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


class TestRoundTrip:
    def test_bit_exact_round_trip(self, i4):
        recovered = parse_instance(serialize_instance(i4))
        assert np.array_equal(recovered.log_transitions, i4.log_transitions)
        assert np.array_equal(recovered.log_emissions, i4.log_emissions)
        assert recovered == i4

    def test_edge_values_round_trip(self):
        # Signed zeros, the smallest subnormal and a huge value keep their exact text.
        row = [-0.0, 0.0, -math.inf, 5e-324, 1e308]
        inst = Instance(L=1, V=5, log_transitions=[[-math.inf]], log_emissions=[row])
        doc = instance_to_dict(inst)
        assert all(type(v) is float for v in doc["log_emissions"][0] if v is not None)
        assert json.dumps(doc["log_emissions"]) == "[[-0.0, 0.0, null, 5e-324, 1e+308]]"
        assert json.dumps(doc["log_transitions"]) == "[[null]]"
        recovered = parse_instance(serialize_instance(inst), run_validation=False)
        assert recovered.log_emissions.tobytes() == inst.log_emissions.tobytes()

    def test_tables_serialize_as_the_per_cell_loop_does(self):
        # The loop is the reference for the vectorized encoding: same JSON text.
        for inst in random_batch(30, seed0=500, L=9, V=4, sparsity=0.3):
            for table in (inst.log_transitions, inst.log_emissions):
                loop = [[None if v == LOG_ZERO else float(v) for v in row] for row in table]
                assert json.dumps(_table_to_lists(table)) == json.dumps(loop)

    def test_neg_inf_encoded_as_null(self, i2):
        doc = json.loads(serialize_instance(i2))
        assert doc["log_transitions"][0][0] is None
        assert doc["log_transitions"][1] == [None, None]
        assert doc["log_transitions"][0][1] == 0.0

    def test_vocab_and_meta_survive(self):
        inst = random_instance(1, L=4, V=2)
        doc = instance_to_dict(inst)
        doc["vocab"] = ["aa", "bb"]
        recovered = instance_from_dict(doc)
        assert recovered.vocab == ("aa", "bb")
        assert recovered.meta["generator"]["seed"] == 1

    def test_file_round_trip(self, tmp_path, i4):
        target = tmp_path / "inst.json"
        save_instance(i4, target)
        assert parse_instance(target.read_text()) == i4

    def test_generator_output_round_trips(self, tmp_path):
        inst = random_instance(123, L=9, V=4, sparsity=0.5)
        target = tmp_path / "inst.json"
        save_instance(inst, target)
        assert parse_instance(target.read_text()) == inst


class TestParseErrors:
    def test_malformed_json(self):
        with pytest.raises(InstanceFormatError, match="line"):
            parse_instance("{not json")

    def test_missing_key(self):
        with pytest.raises(InstanceFormatError, match="log_emissions"):
            parse_instance('{"L": 1, "V": 1, "log_transitions": [[null]]}')

    def test_shape_mismatch(self, i4):
        doc = instance_to_dict(i4)
        doc["log_transitions"] = [[None] * 3 for _ in range(3)]
        with pytest.raises(ShapeError, match=r"log_transitions has shape \(3, 3\), expected \(4, 4\)"):
            instance_from_dict(doc)
        doc = instance_to_dict(i4)
        doc["log_emissions"] = doc["log_emissions"][:3]
        with pytest.raises(ShapeError, match=r"log_emissions has shape \(3, 2\), expected \(4, 2\)"):
            instance_from_dict(doc)

    def test_ragged_rows(self, i2):
        doc = instance_to_dict(i2)
        doc["log_emissions"] = [[0.0, None], [0.0]]
        with pytest.raises(InstanceFormatError):
            instance_from_dict(doc)

    @pytest.mark.parametrize(
        "table, where", [("log_transitions", (0, 1)), ("log_emissions", (1, 0))]
    )
    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["plus", "minus"])
    def test_integer_beyond_float_range_named(self, i2, table, where, big):
        doc = instance_to_dict(i2)
        doc[table][where[0]][where[1]] = big
        i, j = where
        with pytest.raises(InstanceFormatError, match=rf"{table}\[{i}\]\[{j}\] must be"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize(
        "table, where", [("log_transitions", (0, 1)), ("log_emissions", (1, 0))]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("run_validation", [True, False])
    def test_non_finite_literal_named(self, i2, table, where, value, run_validation):
        # json.dumps writes NaN, Infinity and -Infinity, and json.loads reads
        # them back; a file writes -inf as null, and holds no NaN or +inf.
        doc = instance_to_dict(i2)
        doc[table][where[0]][where[1]] = value
        i, j = where
        with pytest.raises(InstanceFormatError, match=rf"{table}\[{i}\]\[{j}\] must be"):
            parse_instance(json.dumps(doc), run_validation=run_validation)

    def test_non_numeric_entry(self, i2):
        doc = instance_to_dict(i2)
        doc["log_emissions"][0][0] = "-inf"
        with pytest.raises(InstanceFormatError):
            instance_from_dict(doc)

    def test_positive_logprob_fails_validation(self, i2):
        doc = instance_to_dict(i2)
        doc["log_transitions"][0][1] = 0.5
        with pytest.raises(InstanceValidationError) as err:
            instance_from_dict(doc)
        assert any("row 1" in v for v in err.value.violations)

    @pytest.mark.parametrize("key", ["L", "V"])
    def test_boolean_size_rejected(self, key):
        # bool is a subclass of int; true must not pass as 1.
        doc = {"L": 1, "V": 1, "log_transitions": [[None]], "log_emissions": [[0.0]]}
        doc[key] = True
        with pytest.raises(InstanceFormatError, match="positive integers"):
            instance_from_dict(doc)

    def test_validation_override(self, i2):
        doc = instance_to_dict(i2)
        doc["log_transitions"][0][1] = math.log(0.5)
        inst = instance_from_dict(doc, run_validation=False)
        assert len(validate(inst)) == 1


class TestTableConversion:
    """The one-call conversion gives the per-cell loop's bytes, or its exception and message."""

    ROWS = {
        "bool": [[None, True], [None, None]],
        "false": [[-1.0, False]],
        "str": [[None, "-1.5"], [None, None]],
        "numpy float": [[None, np.float64(-0.5)], [None, None]],
        "numpy int": [[np.int64(-1), None]],
        "numpy nan": [[None, np.float64("nan")]],
        "list cell": [[None, [0.0]]],
        "dict cell": [[{}, None]],
        "ragged": [[0.0, None], [0.0]],
        "ragged empty": [[], [None]],
        "not a list": {"0": [0.0]},
        "row not a list": [[0.0], (0.0,)],
        "empty": [],
        "empty rows": [[], []],
        "one cell": [[-0.25]],
        "one null": [[None]],
        "all null": [[None] * 4 for _ in range(4)],
        "ints": [[0, -3, None], [7, None, -(2**40)]],
        "nan in a dict": [[None, -1.0], [math.nan, None]],
        "inf in a dict": [[None, math.inf]],
        "-inf in a dict": [[-math.inf, None]],
        "-0.0 in a dict": [[-0.0, None], [0.0, -0.0]],
        "nan and null": [[None, None, math.nan]],
    }

    @pytest.mark.parametrize("rows", ROWS.values(), ids=ROWS.keys())
    def test_cases(self, rows):
        assert conversion_outcome(_lists_to_table, rows) == conversion_outcome(
            reference_lists_to_table, rows
        )

    @pytest.mark.parametrize(
        "big",
        [2**53 + 1, -(2**53 + 1), 2**63, -(2**63) - 1, 2**64 + 1, 10**308, -(10**308),
         10**309, -(10**309)],
    )
    def test_large_integers(self, big):
        for rows in ([[big]], [[None, -1.5], [big, None]], [[big, 10**400]]):
            assert conversion_outcome(_lists_to_table, rows) == conversion_outcome(
                reference_lists_to_table, rows
            )

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_json_literals(self, literal):
        rows = json.loads(f"[[null, -0.5], [{literal}, null]]")
        got = conversion_outcome(_lists_to_table, rows)
        assert got == conversion_outcome(reference_lists_to_table, rows)
        assert got[0] is InstanceFormatError

    def test_generated_instances(self):
        for inst in random_batch(20, seed0=900, L=17, V=4, sparsity=0.4):
            doc = instance_to_dict(inst)
            for name in ("log_transitions", "log_emissions"):
                got = _lists_to_table(doc[name], name)
                assert got.tobytes() == reference_lists_to_table(doc[name], name).tobytes()
                assert got.tobytes() == getattr(inst, name).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.one_of(
                        st.none(), st.floats(), st.integers(), st.booleans(),
                        st.sampled_from([10**309, -(2**64), -0.0]),
                    ),
                    min_size=width, max_size=width,
                ),
                max_size=4,
            )
        )
    )
    def test_property(self, rows):
        assert conversion_outcome(_lists_to_table, rows) == conversion_outcome(
            reference_lists_to_table, rows
        )


class TestGenerator:
    @pytest.mark.parametrize("L", [1, 2, 64])
    @pytest.mark.parametrize("sparsity", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("concentration", [0.05, 1.0, 8.0])
    def test_tables_match_the_row_by_row_loop(self, L, sparsity, concentration):
        for seed in range(3):
            config = GeneratorConfig(
                L=L, V=5, seed=seed, sparsity=sparsity,
                transition_concentration=concentration, emission_concentration=concentration,
            )
            got, want = generate_instance(config), reference_generate_instance(config)
            assert got.log_transitions.tobytes() == want.log_transitions.tobytes()
            assert got.log_emissions.tobytes() == want.log_emissions.tobytes()
            assert got.meta == want.meta

    def test_deterministic(self):
        config = GeneratorConfig(L=4, V=2, seed=7)
        assert generate_instance(config) == generate_instance(config)

    def test_different_seeds_differ(self):
        a = generate_instance(GeneratorConfig(L=6, V=3, seed=1))
        b = generate_instance(GeneratorConfig(L=6, V=3, seed=2))
        assert a != b

    @pytest.mark.parametrize("sparsity", [0.0, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("concentration", [0.05, 1.0, 8.0])
    def test_outputs_always_validate(self, sparsity, concentration):
        for seed in range(5):
            inst = generate_instance(
                GeneratorConfig(
                    L=7,
                    V=3,
                    seed=seed,
                    sparsity=sparsity,
                    transition_concentration=concentration,
                    emission_concentration=concentration,
                )
            )
            assert validate(inst) == []

    def test_sparsity_forbids_transitions(self):
        dense = generate_instance(GeneratorConfig(L=10, V=2, seed=3, sparsity=0.0))
        sparse = generate_instance(GeneratorConfig(L=10, V=2, seed=3, sparsity=0.6))
        assert np.isfinite(sparse.log_transitions).sum() < np.isfinite(
            dense.log_transitions
        ).sum()

    def test_invalid_configs_rejected(self):
        with pytest.raises(GeneratorConfigError):
            GeneratorConfig(L=0, V=2, seed=0)
        with pytest.raises(GeneratorConfigError):
            GeneratorConfig(L=2, V=2, seed=0, sparsity=1.0)
        with pytest.raises(GeneratorConfigError):
            GeneratorConfig(L=2, V=2, seed=0, transition_concentration=0.0)
        with pytest.raises(GeneratorConfigError, match="seed must be >= 0, got -3"):
            GeneratorConfig(L=2, V=2, seed=-3)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["transition_concentration", "emission_concentration"])
    def test_non_finite_concentration_rejected(self, field, value):
        with pytest.raises(GeneratorConfigError, match="finite"):
            GeneratorConfig(L=2, V=2, seed=0, **{field: value})

    def test_low_concentration_lowers_transition_entropy(self):
        # Direction only: spikier Dirichlet draws mean lower mean entropy.
        def mean_entropy(concentration):
            values = []
            for seed in range(100):
                inst = generate_instance(
                    GeneratorConfig(
                        L=6, V=2, seed=seed, transition_concentration=concentration
                    )
                )
                values.append(entropy_stats(inst).transition_entropy)
            return float(np.mean(values))

        assert mean_entropy(0.01) < mean_entropy(1.0)
