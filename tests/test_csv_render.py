"""The block CSV renderer against the plain one-template renderer it replaced.

``Trace.csv_lines`` bakes the text of each column that is bit-constant over
a block of records into that block's row template.  ``plain_csv_lines``
formats every cell of every record with one template; it is the reference
the property holds the block renderer to, line for line.
"""

import math
import struct
from array import array
from itertools import cycle, islice

import pytest
from hypothesis import given, settings, strategies as st

from memlogic.engine import SimConfig, Trace


def plain_csv_lines(trace: Trace):
    """The header, then each record through a single ``"%.8e"`` row template."""
    yield ",".join(trace.columns) + "\n"
    row_format = ",".join(["%.8e"] * len(trace.columns)) + "\n"
    yield from map(row_format.__mod__, zip(*trace.columns.values()))


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Distinct bit patterns that a value-level compare could merge: signed zeros, infinities,
# and NaNs with and without the sign bit and with a payload.
SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, _double(0xFFF8000000000000),
            _double(0x7FF8000000000123), 0.1, 1e-300, 5e-324]
BLOCK = 256
ROWS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


def runs(rows: int):
    """A column of ``rows`` values: runs over up to 3 values and their negations, some ending on a block edge.

    Negation gives ``-0.0`` beside ``0.0`` and ``-nan`` beside ``nan``: bits that differ
    in values that compare equal, or that never compare equal.
    """
    length = st.one_of(st.integers(1, 300), st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1]))

    def pieces(palette):
        value = st.sampled_from(palette).flatmap(lambda v: st.sampled_from([v, -v]))
        return st.lists(st.tuples(value, length), min_size=1, max_size=8)

    palette = st.lists(st.one_of(st.sampled_from(SPECIALS), st.floats()), min_size=1, max_size=3)
    return palette.flatmap(pieces).map(lambda ps: list(islice(cycle([v for v, n in ps for _ in range(n)]), rows)))


@pytest.mark.parametrize("rows", ROWS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_block_renderer_matches_plain_renderer(rows, data):
    columns = {f"c{i}": data.draw(runs(rows), label=f"c{i}") for i in range(data.draw(st.integers(1, 6)))}
    # Hold whole blocks in every column, so some blocks have no varying column.
    for blk in data.draw(st.sets(st.integers(0, rows // BLOCK)), label="held blocks"):
        a, b = blk * BLOCK, min(blk * BLOCK + BLOCK, rows)
        for values in columns.values():
            values[a:b] = values[a:a + 1] * (b - a)
    for name in columns:
        if data.draw(st.booleans(), label=f"{name} packed"):
            columns[name] = array("d", columns[name])
    trace = Trace(SimConfig(), columns)
    assert list(trace.csv_lines()) == list(plain_csv_lines(trace))


@pytest.mark.parametrize("columns", [{}, {"t_ms": array("d")}, {"t_ms": [], "NET": []}])
def test_table_without_records_renders_only_its_header(columns):
    trace = Trace(SimConfig(), columns)
    lines = list(trace.csv_lines())
    assert lines == list(plain_csv_lines(trace))
    assert lines == [",".join(columns) + "\n"]
