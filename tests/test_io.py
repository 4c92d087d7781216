import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from dagdecode import _cpass, io
from dagdecode.io import _lists_to_table, _table_to_lists, instance_from_dict, instance_to_dict
from dagdecode.logmath import LOG_ZERO

from conftest import (
    parse_outcome,
    random_batch,
    random_instance,
    reader_corpus,
    reference_generate_instance,
    reference_lists_to_table,
    reference_parse_instance,
    reference_serialize_instance,
    traced_peak,
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
        text = serialize_instance(recovered)
        assert json.loads(text)["vocab"] == ["aa", "bb"]
        assert parse_instance(text) == recovered
        assert parse_instance(text).vocab == ("aa", "bb")

    def test_file_round_trip(self, tmp_path, i4):
        target = tmp_path / "inst.json"
        save_instance(i4, target)
        assert parse_instance(target.read_text()) == i4

    def test_generator_output_round_trips(self, tmp_path):
        inst = random_instance(123, L=9, V=4, sparsity=0.5)
        target = tmp_path / "inst.json"
        save_instance(inst, target)
        assert parse_instance(target.read_text()) == inst


def writer_outcome(write, instance):
    """``write(instance)``, or its exception's type and message."""
    try:
        return write(instance)
    except Exception as exc:
        return type(exc), str(exc)


#: Finite cells whose shortest repr has an exponent, a signed zero or a subnormal.
ODD_FLOATS = [-0.0, 5e-324, 1e308, 1e16, 1e-05, 123456789.0]


class TestWriter:
    """``serialize_instance`` and ``save_instance`` write the reference's bytes."""

    @pytest.mark.parametrize("sparsity", [0.0, 0.3, 0.7])
    def test_generated_lattices(self, sparsity):
        for L in range(1, 41):
            for V in range(1, 8):
                inst = random_instance(100 * L + V, L=L, V=V, sparsity=sparsity)
                assert serialize_instance(inst) == reference_serialize_instance(inst)

    def test_odd_floats(self):
        negated = [-v for v in ODD_FLOATS]  # 0.0 and -1e308: no JOINT weight overflows
        row = ODD_FLOATS + [-math.inf, *negated]
        trans = [[-math.inf, *negated], *[[-math.inf] * 7] * 6]
        inst = Instance(L=7, V=len(row), log_transitions=trans, log_emissions=[row] * 7)
        assert serialize_instance(inst) == reference_serialize_instance(inst)

    @pytest.mark.parametrize("vocab", [
        None, ["a", "b"], ['say "hi"', "back\\slash"], ["two\nlines", "tab\tand\r"],
        ["\u00e9t\u00e9", "\u2603\U0001f600"], ["", " "],
    ])
    @pytest.mark.parametrize("meta", [
        None, {}, [], {"n": None}, {"a": {"b": [1, [2.5, {}]], "c": []}, "d": "x\ny"},
        {"generator": {"L": 2, "seed": 3, "sparsity": 0.3}}, [None, True, "\u00e9"],
    ])
    def test_vocab_and_meta(self, vocab, meta):
        inst = random_instance(4, L=3, V=2)
        inst = Instance(L=3, V=2, log_transitions=inst.log_transitions,
                        log_emissions=inst.log_emissions, vocab=vocab, meta=meta)
        assert serialize_instance(inst) == reference_serialize_instance(inst)

    @pytest.mark.parametrize("meta", [{"x": object()}, {"x": {1, 2}}, {"x": [1, {2j}]},
                                      {"x": np.int64(3)}])
    def test_unserializable_meta_raises_as_the_reference(self, meta):
        inst = Instance(L=1, V=1, log_transitions=[[-math.inf]], log_emissions=[[0.0]],
                        meta=meta)
        outcome = writer_outcome(serialize_instance, inst)
        assert outcome[0] is TypeError
        assert outcome == writer_outcome(reference_serialize_instance, inst)

    def test_circular_meta_raises_as_the_reference(self):
        meta = {"x": []}
        meta["x"].append(meta)
        inst = Instance(L=1, V=1, log_transitions=[[-math.inf]], log_emissions=[[0.0]],
                        meta=meta)
        outcome = writer_outcome(serialize_instance, inst)
        assert outcome == (ValueError, "Circular reference detected")
        assert outcome == writer_outcome(reference_serialize_instance, inst)

    def test_saved_file_is_the_reference_text_and_a_newline(self, tmp_path):
        for k, inst in enumerate(random_batch(4, seed0=40, L=30, V=5, sparsity=0.3)):
            save_instance(inst, tmp_path / f"{k}.json")
            expected = reference_serialize_instance(inst) + "\n"
            assert (tmp_path / f"{k}.json").read_bytes() == expected.encode()


class TestReadMemory:
    @pytest.mark.parametrize("run_validation", [False, True])
    def test_parsed_tables_are_kept_without_a_copy(self, run_validation):
        doc = instance_to_dict(random_instance(1000, L=512, V=32))
        peak = traced_peak(lambda: instance_from_dict(doc, run_validation=run_validation))
        inst = instance_from_dict(doc, run_validation=run_validation)
        kept = inst.log_transitions.nbytes + inst.log_emissions.nbytes
        # A second copy of the transitions alone would take the peak to 1.9x.
        assert peak < 1.25 * kept
        assert not inst.log_transitions.flags.writeable
        assert not inst.log_emissions.flags.writeable


def compiled_reader():
    """The compiled kernels, whose ``read`` takes the tables; they load wherever ``cc`` is."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    kernels = _cpass.load()
    assert kernels is not None
    return kernels


def read_token(token: str):
    """The value the compiled reader gives a table cell written as ``token``, or None."""
    text = f'{{"log_transitions": [[{token}]], "log_emissions": [[{token}]]}}'
    tables = compiled_reader().read(text.encode())
    return None if tables is None else float(tables[0][2][0, 0])


def json_float(token: str):
    """``json``'s float for ``token``; None where it reads an int or a non-finite value."""
    if not any(c in token for c in ".eE"):
        return None
    value = float(token)
    return value if math.isfinite(value) else None


def decimal_token(digits: int, point: int, exponent, negative: bool) -> str:
    """``digits`` with a decimal point after its first ``point`` digits and an exponent."""
    d = str(digits)
    whole, fraction = d[:point] or "0", d[point:]
    text = ("-" if negative else "") + whole + ("." + fraction if fraction else "")
    return text + (f"e{exponent}" if exponent is not None else "")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: Significands around Clinger's 2^53 bound and of 19-20 digits, then any.
SIGNIFICANDS = st.one_of(
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, 10**19 - 1, 10**19,
                     2**64 - 1, 2**64, 10**20 - 1]),
    st.integers(10**18, 10**20), st.integers(0, 10**20),
)
#: Exponents at Clinger's +-22 bound, at the subnormal and overflow ends, then any.
EXPONENTS = st.one_of(
    st.none(), st.sampled_from([-23, -22, 22, 23, -324, -308, 308, 309]),
    st.integers(-30, 30), st.integers(-360, 320),
)
TOKENS = st.one_of(
    FINITE.map(repr),
    st.builds(lambda x, n: f"{x:.{n}g}", FINITE, st.integers(1, 20)),
    st.builds(lambda x, n: f"{x:.{n}e}", FINITE, st.integers(0, 20)),
    st.floats(0.0, 2.3e-308).map(repr),
    st.builds(decimal_token, SIGNIFICANDS, st.integers(0, 22), EXPONENTS, st.booleans()),
)


class TestReader:
    """``parse_instance`` gives the instance, or the error, of ``json.loads`` and ``instance_from_dict``."""

    CASES = reader_corpus()

    @pytest.mark.parametrize("run_validation", [True, False])
    @pytest.mark.parametrize("name, text, read", CASES,
                             ids=[name.replace(" ", "-") for name, _, _ in CASES])
    def test_corpus(self, monkeypatch, name, text, read, run_validation):
        expected = parse_outcome(reference_parse_instance, text, run_validation)
        assert parse_outcome(parse_instance, text, run_validation) == expected
        compiled_reader()
        assert (io._read_tables(text) is not None) == read
        monkeypatch.setattr(_cpass, "_kernels", False)
        assert io._read_tables(text) is None
        assert parse_outcome(parse_instance, text, run_validation) == expected

    @pytest.mark.parametrize("sparsity", [0.0, 0.3, 0.7])
    def test_generated_lattices(self, sparsity):
        compiled_reader()
        for L in (1, 2, 3, 7, 20, 64):
            for V in (1, 5):
                text = serialize_instance(random_instance(10 * L + V, L=L, V=V, sparsity=sparsity))
                assert io._read_tables(text) is not None
                assert parse_outcome(parse_instance, text) == parse_outcome(
                    reference_parse_instance, text
                )

    def test_random_bit_patterns(self):
        # The finite doubles of 10,000 random bit patterns, as repr, %.17g and %.15g.
        compiled_reader()
        bits = np.random.default_rng(0).integers(0, 2**64, 10_000, dtype=np.uint64)
        values = [x for x in bits.view(np.float64).tolist() if math.isfinite(x)]
        tokens = [t for x in values for t in (repr(x), f"{x:.17g}", f"{x:.15g}")
                  if json_float(t) is not None]
        row = "[" + ", ".join(tokens) + "]"
        text = f'{{"log_transitions": [{row}], "log_emissions": [{row}]}}'
        [(_, _, got), _] = compiled_reader().read(text.encode())
        assert got.tobytes() == np.array([[float(t) for t in tokens]]).tobytes()

    @settings(max_examples=1000, deadline=None)
    @given(TOKENS)
    @example("2.4703282292062327e-324")  # just below half the least subnormal: 0.0
    @example("2.4703282292062328e-324")  # just above it: 5e-324
    @example("2.2250738585072011e-308")  # the largest subnormal, from above
    @example("9007199254740993.0")  # 2^53 + 1, which no double holds
    @example("9007199254740993e-22")
    @example("0.1e23")  # 1 x 10^22, Clinger's last exact power
    @example("1e23")
    @example("1.7976931348623157e308")
    @example("1.7976931348623159e308")  # rounds to +inf: left to json
    @example("-0.0")
    @example("0.0e-99999999999999999999")
    def test_numbers_are_floats(self, token):
        got, expected = read_token(token), json_float(token)
        assert (got is None) == (expected is None)
        if expected is not None:
            assert got.hex() == expected.hex()

    def test_parse_memory(self):
        # The encoded text and the tables; through json.loads alone the peak was 8.3 MB.
        compiled_reader()
        text = serialize_instance(random_instance(1000, L=512, V=32))
        inst = parse_instance(text)
        kept = inst.log_transitions.nbytes + inst.log_emissions.nbytes
        assert traced_peak(lambda: parse_instance(text)) < len(text) + 1.1 * kept
        assert not inst.log_transitions.flags.writeable
        assert not inst.log_emissions.flags.writeable


class TestParseErrors:
    def test_malformed_json(self):
        with pytest.raises(InstanceFormatError, match="line"):
            parse_instance("{not json")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 200_000 + "]" * 200_000, "not valid JSON: nested too deeply"),
            ('{"L": 1, "V": 1, "log_transitions": [[null]], "log_emissions": [[0.0]], "meta": '
             + "[" * 200_000 + "]" * 200_000 + "}", "not valid JSON: nested too deeply"),
            ('{"L": 1' + "0" * 5000 + "}", "not valid JSON: .*digits"),
            ("[1, 2]", "instance document must be an object, got list"),
        ],
        ids=["deep", "deep-meta", "long-integer", "not-an-object"],
    )
    def test_unreadable_document(self, text, message):
        # Valid JSON that json cannot read still gets the typed error, never a
        # RecursionError or a bare ValueError.
        with pytest.raises(InstanceFormatError, match=message):
            parse_instance(text)

    @pytest.mark.parametrize("vocab", ["ab", ["a", 1], [["a"], "b"]])
    def test_vocab_must_be_strings(self, i2, vocab):
        doc = instance_to_dict(i2)
        doc["vocab"] = vocab
        with pytest.raises(InstanceFormatError, match="vocab must be a list of strings"):
            instance_from_dict(doc)

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
