"""The measurement records in ``bench/`` and their index, ``bench/README.md``, agree."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RECORD = re.compile(r"BENCH_\w+\.json")


def index_rows() -> list[str]:
    """The record each row of the index's table names in its first cell."""
    rows = []
    for line in (BENCH / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and RECORD.fullmatch(cells[0].strip("`")):
            rows.append(cells[0].strip("`"))
    return rows


def test_every_record_has_exactly_one_index_row():
    records = sorted(path.name for path in BENCH.glob("BENCH_*.json"))
    assert records
    assert sorted(index_rows()) == records


def test_no_record_is_left_at_the_root():
    assert not list(ROOT.glob("BENCH_*.json"))


def test_every_cited_record_exists():
    for cited in ("README.md", "scripts/bench_fastpath.py"):
        for name in RECORD.findall((ROOT / cited).read_text()):
            assert (BENCH / name).is_file(), f"{cited} cites {name}, which is not in bench/"
