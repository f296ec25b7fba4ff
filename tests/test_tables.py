"""write_table: a table reads back with ``csv.reader`` as the
``_format_cell`` text of each cell, and every float cell parses back to
the same float, bit for bit."""

import csv
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mpslab.tables import _format_cell, write_table

# the characters a cell may hold: any but surrogates, with the ones that
# force quoting drawn often
TEXT = st.text(st.one_of(
    st.sampled_from(',"\n\r'),
    st.characters(codec="utf-8")))
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                     -2.5e-310, 2.2250738585072009e-308]))
CELLS = st.one_of(
    FLOATS, st.integers(), st.booleans(), TEXT,
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_))
TABLES = st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(TEXT, min_size=width, max_size=width),
    st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=5)))


def same_float(a: float, b: float) -> bool:
    """Equal bits; any NaN matches any NaN, since ``repr`` writes every
    NaN payload as ``nan``."""
    if math.isnan(a):
        return math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


@settings(max_examples=300, deadline=None)
@given(table=TABLES)
def test_cells_read_back(table, tmp_path_factory):
    header, rows = table
    path = tmp_path_factory.getbasetemp() / "table.csv"
    assert write_table(path, header, rows) == path
    # lines end in LF: every carriage return is one a cell holds
    assert path.read_bytes().count(b"\r") == sum(
        text.count("\r") for text in header
        + [_format_cell(v) for row in rows for v in row])
    with open(path, newline="") as fh:
        back = list(csv.reader(fh))
    assert back == [header] + [[_format_cell(v) for v in row] for row in rows]
    for row, texts in zip(rows, back[1:]):
        for value, text in zip(row, texts):
            if isinstance(value, (float, np.floating)):
                assert same_float(float(text), float(value)), (value, text)
