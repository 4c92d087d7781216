"""Instance file format and the seeded synthetic instance generator.

Instances are JSON documents with keys "L", "V", "log_transitions",
"log_emissions", and optional "vocab" and "meta". ``-inf`` is encoded as
null so the files stay portable; every finite entry round-trips
bit-exactly through Python's shortest-repr float formatting.

A text is read by one of two routes, which give the same instance, or the
same exception and message. The compiled reader (``_cpass``) walks the
text's top-level object once, finds the values of "log_transitions" and
"log_emissions", and reads each as it goes, strictly as ``[[cell, ...],
...]`` with each cell ``null`` or a number with a fraction or an exponent;
``json.loads`` reads the rest of the text, each table replaced by ``0``. A
number gets ``float``'s value: Clinger's exact fast case where its
significand's digits are at most 2^53 and its power of ten at most 22, one
multiply or divide; else ``strtod``, which must stop where the token ends.
The reader never refuses a text. Any text it cannot take whole (an integer,
NaN or out-of-range cell, a ragged table, a table key spelled with an
escape or given twice, a BOM, a lone surrogate, anything ``json.loads``
refuses in the rest), and any text where ``cc`` is missing, goes whole to
``json.loads`` and :func:`instance_from_dict`, so every error and its
message come from that code. The checks after reading are the same
functions on both routes. An L=512, V=32 file (5.4 MB) parses, validation
included, in 16 ms against 64 ms through ``json.loads`` alone (medians in
a fresh interpreter, ``bench/BENCH_read.json``).

On that second route, a table of plain ints, floats and nulls is read in
one numpy conversion. Only a table with any other cell, or with a cell that
conversion cannot take (an int beyond float range, a NaN or an infinity),
is read cell by cell, to name the first bad ``[i][j]``; either way the
table, or the error and its message, is the same. On either route the
parsed tables are kept by the instance without a copy.

A file is written as ``json.dumps(instance_to_dict(instance), indent=2)``
writes it, byte for byte. But any ``indent`` makes ``json`` skip its C
encoder and yield every number, comma and newline from Python. So each
table goes through the C encoder with ``indent=2``'s cell break as its item
separator, and one replace turns the breaks between rows into
``indent=2``'s. The small values keep ``indent=2``, nested one level.
Saving an L=512, V=32 instance (a 5.4 MB file) takes 109–135 ms and a
``tracemalloc`` peak of 19.9 MB, against 184–246 ms and 32.7 MB through
``indent=2`` alone (``bench/BENCH_write.json``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import _cpass
from .errors import GeneratorConfigError, InstanceFormatError, InstanceValidationError
from .lattice import Instance, validate
from .logmath import LOG_ZERO


@dataclass(frozen=True)
class GeneratorConfig:
    """Seeded recipe for one synthetic instance.

    Transition rows are symmetric-Dirichlet draws over the allowed (strictly
    later) positions, emission rows over the vocabulary. ``sparsity``
    forbids that fraction of each row's successors before the draw, always
    keeping at least one so no row dead-ends.
    """

    L: int
    V: int
    seed: int
    transition_concentration: float = 1.0
    emission_concentration: float = 1.0
    sparsity: float = 0.0

    def __post_init__(self):
        if self.L < 1 or self.V < 1:
            raise GeneratorConfigError(f"L and V must be >= 1, got L={self.L} V={self.V}")
        if self.seed < 0:
            raise GeneratorConfigError(f"seed must be >= 0, got {self.seed}")
        for c in (self.transition_concentration, self.emission_concentration):
            if not 0 < c < math.inf:
                raise GeneratorConfigError(f"concentrations must be finite and > 0, got {c}")
        if not 0.0 <= self.sparsity < 1.0:
            raise GeneratorConfigError(
                f"sparsity must lie in [0, 1) to keep every row reachable, "
                f"got {self.sparsity}"
            )


def generate_instance(config: GeneratorConfig) -> Instance:
    """Draw one instance; identical configs produce identical instances."""
    rng = np.random.default_rng(config.seed)
    L, V = config.L, config.V

    transitions = np.zeros((L, L))
    concentrations = np.full(L, config.transition_concentration)
    for t in range(L - 1):
        later = L - 1 - t
        forbid = min(int(config.sparsity * later), later - 1)
        successors = slice(t + 1, L)
        if forbid:
            dropped = rng.choice(later, size=forbid, replace=False)
            successors = np.delete(np.arange(t + 1, L), dropped)
        transitions[t, successors] = rng.dirichlet(concentrations[: later - forbid])

    emissions = rng.dirichlet(np.full(V, config.emission_concentration), size=L)

    return Instance.from_probs(transitions, emissions, meta={"generator": asdict(config)})


def instance_to_dict(instance: Instance) -> dict:
    """Plain-data form of an instance, ``-inf`` mapped to None."""
    doc = {
        "L": instance.L,
        "V": instance.V,
        "log_transitions": _table_to_lists(instance.log_transitions),
        "log_emissions": _table_to_lists(instance.log_emissions),
    }
    if instance.vocab is not None:
        doc["vocab"] = list(instance.vocab)
    if instance.meta is not None:
        doc["meta"] = instance.meta
    return doc


def instance_from_dict(doc, run_validation: bool = True) -> Instance:
    """Build an Instance from plain data, optionally enforcing validity.

    Raises InstanceFormatError for missing or ill-typed fields, ShapeError
    for arrays that disagree with the declared L and V, and
    InstanceValidationError (listing every violation) when validation is
    requested and fails.
    """
    _check_fields(doc)
    trans = _lists_to_table(doc["log_transitions"], "log_transitions")
    emis = _lists_to_table(doc["log_emissions"], "log_emissions")
    return _instance(doc, trans, emis, run_validation)


def parse_instance(text: str, run_validation: bool = True) -> Instance:
    """Parse a JSON instance document; InstanceFormatError for text ``json`` cannot read.

    The compiled reader takes the tables where it can; any other text is
    read by ``json.loads`` and :func:`instance_from_dict` (see the module
    docstring).
    """
    read = _read_tables(text)
    if read is not None:
        doc, trans, emis = read
        _check_fields(doc)
        return _instance(doc, trans, emis, run_validation)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except RecursionError:
        raise InstanceFormatError("not valid JSON: nested too deeply to parse") from None
    except ValueError as exc:  # an integer beyond sys.get_int_max_str_digits()
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    return instance_from_dict(doc, run_validation=run_validation)


def _read_tables(text: str):
    """``(doc, trans, emis)`` from the compiled reader, or None where it does not read ``text``.

    ``doc`` is ``json.loads`` of the text with each table's value replaced
    by ``0``. Where the reader or that ``json.loads`` fails, or the text
    does not encode, the caller reads the whole text with ``json.loads``.
    """
    kernels = _cpass.load()
    if kernels is None:
        return None
    try:
        data = text.encode()
    except UnicodeEncodeError:  # a lone surrogate, which json reads
        return None
    tables = kernels.read(data)
    if tables is None:
        return None
    (a, b, _), (c, d, _) = sorted(tables, key=lambda span: span[0])
    try:
        doc = json.loads((data[:a] + b"0" + data[b:c] + b"0" + data[d:]).decode())
    except (ValueError, RecursionError):
        return None
    return doc, tables[0][2], tables[1][2]


def _check_fields(doc) -> None:
    """Raise InstanceFormatError unless ``doc`` is an object with the keys and sizes it needs."""
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"instance document must be an object, got {type(doc).__name__}")
    for key in ("L", "V", "log_transitions", "log_emissions"):
        if key not in doc:
            raise InstanceFormatError(f"missing required key {key!r}")
    L, V = doc["L"], doc["V"]
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in (L, V)):
        raise InstanceFormatError(f"L and V must be positive integers, got L={L!r} V={V!r}")


def _instance(doc: dict, trans: np.ndarray, emis: np.ndarray, run_validation: bool) -> Instance:
    """The instance of ``doc``'s other fields and the just-built tables, kept without a copy."""
    vocab = doc.get("vocab")
    if vocab is not None and (
        not isinstance(vocab, list) or not all(isinstance(w, str) for w in vocab)
    ):
        raise InstanceFormatError("vocab must be a list of strings")

    instance = Instance(
        L=doc["L"],
        V=doc["V"],
        log_transitions=trans,
        log_emissions=emis,
        vocab=vocab,
        meta=doc.get("meta"),
        _fresh_tables=True,
    )
    if run_validation:
        violations = validate(instance)
        if violations:
            raise InstanceValidationError(violations)
    return instance


#: ``indent=2``'s break between two cells of a table row, and between two rows.
_CELL_BREAK = ",\n      "
_ROW_BREAK = "\n    ],\n    [\n      "


def serialize_instance(instance: Instance) -> str:
    """JSON text for an instance; inverse of :func:`parse_instance`.

    The text is ``json.dumps(instance_to_dict(instance), indent=2)``, byte
    for byte, but each table is written by json's C encoder (see the module
    docstring).
    """
    fields = {"L": _nested(instance.L), "V": _nested(instance.V),
              "log_transitions": _table_text(instance.log_transitions),
              "log_emissions": _table_text(instance.log_emissions)}
    if instance.vocab is not None:
        fields["vocab"] = _nested(instance.vocab)
    if instance.meta is not None:
        fields["meta"] = _nested(instance.meta)
    parts = []
    for key, text in fields.items():
        parts += [",\n  " if parts else "{\n  ", json.dumps(key), ": ", text]
    parts.append("\n}")
    return "".join(parts)


def save_instance(instance: Instance, path) -> None:
    """Write :func:`serialize_instance`'s text and a final newline to ``path``."""
    text = serialize_instance(instance)
    with Path(path).open("w") as out:
        out.write(text)
        out.write("\n")


def _nested(value) -> str:
    """``value`` as ``indent=2`` writes it one level down: a string's newlines are escaped."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _table_text(table: np.ndarray) -> str:
    """A table as ``indent=2`` writes it one level down, from json's C encoder.

    The C encoder, which takes no ``indent``, puts ``_CELL_BREAK`` between
    rows as well as between cells, and a number's text holds no bracket or
    comma, so one replace of ``"]" + _CELL_BREAK + "["`` fixes the
    row breaks. A table has at least one row of at least one cell.
    """
    text = json.dumps(_table_to_lists(table), separators=(_CELL_BREAK, ": "))
    rows = text[2:-2].replace("]" + _CELL_BREAK + "[", _ROW_BREAK)
    return "[\n    [\n      " + rows + "\n    ]\n  ]"


def _table_to_lists(table: np.ndarray) -> list[list[float | None]]:
    return np.where(table == LOG_ZERO, None, table).tolist()


#: The cell types read in one conversion. Any other (``bool``, ``str``, a
#: numpy scalar, a subclass) sends the table to the per-cell loop.
_PLAIN_CELLS = frozenset({float, int, type(None)})


def _lists_to_table(rows, name: str) -> np.ndarray:
    """The float64 table of a list of equal-length rows, None read as ``-inf``.

    Raises InstanceFormatError for anything else, naming the first bad cell
    (see the module docstring for the two routes).
    """
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InstanceFormatError(f"{name} must be a list of rows")
    width = {len(r) for r in rows}
    if len(width) > 1:
        raise InstanceFormatError(f"{name} rows have inconsistent lengths {sorted(width)}")
    shape = (len(rows), width.pop() if width else 0)
    if set(map(type, chain.from_iterable(rows))) <= _PLAIN_CELLS:
        try:  # None becomes NaN; an int beyond float range raises OverflowError
            out = np.fromiter(chain.from_iterable(rows), np.float64, shape[0] * shape[1])
        except OverflowError:
            pass
        else:
            missing = np.isfinite(out)
            np.logical_not(missing, out=missing)
            # As many non-finite cells as None cells: no float NaN or infinity.
            if np.count_nonzero(missing) == sum(row.count(None) for row in rows):
                np.copyto(out, LOG_ZERO, where=missing)
                return out.reshape(shape)
    return _checked_cells(rows, name, shape)


def _checked_cells(rows: list, name: str, shape: tuple[int, int]) -> np.ndarray:
    """``_lists_to_table`` cell by cell, raising at the first cell it refuses."""
    out = np.full(shape, LOG_ZERO)
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
        # math.isfinite raises it for an integer too large for a float.
        raise InstanceFormatError(
            f"{name}[{i}][{j}] must be a finite number or null, got an integer out of float range"
        ) from None
    return out
