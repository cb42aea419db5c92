"""The block CSV renderer against the plain one-template renderer it replaced.

``Trace.csv_chunks`` renders the CSV as UTF-8 bytes: the header, then
one item per record.  It bakes the text of each column that is
bit-constant over a block of records into that block's row template, and
formats a varying block that two or more columns hold once, sharing its
text among them.
``plain_csv_lines`` formats every cell of every record as text with one
template; it is the reference the properties hold the block renderer to,
byte for byte and line for line.  They draw held and varying blocks, and
columns that hold one series several times: as one array, as equal
copies, as copies changed in one record, and as copies whose bits differ
where their values compare equal (``0.0``/``-0.0``) or are NaN.
"""

import math
import struct
from array import array
from itertools import cycle, islice

import pytest
from hypothesis import given, settings, strategies as st

from memlogic.engine import SimConfig, Trace, write_trace


def plain_csv_lines(trace: Trace):
    """The header, then each record through a single ``"%.8e"`` row template."""
    yield ",".join(trace.columns) + "\n"
    row_format = ",".join(["%.8e"] * len(trace.columns)) + "\n"
    yield from map(row_format.__mod__, zip(*trace.columns.values()))


def plain_csv(trace: Trace) -> bytes:
    return "".join(plain_csv_lines(trace)).encode()


def assert_renders_as_plain(trace: Trace) -> list[bytes]:
    """The block renderer's bytes equal the plain renderer's, line for line; returns its chunks.

    The first chunk is the header, and every chunk after it is one record: it holds one ``b"\\n"``, at its end.
    """
    chunks = list(trace.csv_chunks())
    assert b"".join(chunks).split(b"\n") == plain_csv(trace).split(b"\n")
    assert chunks[0] == next(plain_csv_lines(trace)).encode()
    for chunk in chunks[1:]:
        assert chunk.endswith(b"\n")
        assert chunk.count(b"\n") == 1
    return chunks


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
    assert_renders_as_plain(Trace(SimConfig(), columns))


def _flip_bits(v: float) -> float:
    """``v`` with other bits but the same compare: a zero of the other sign, or a NaN of the other sign and
    payload; any other value unchanged."""
    if v == 0.0:
        return -v
    if math.isnan(v):
        return _double(struct.unpack("<Q", struct.pack("<d", v))[0] ^ 0x8000000000000001)
    return v


@pytest.mark.parametrize("rows", ROWS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_block_renderer_matches_plain_renderer_on_shared_columns(rows, data):
    """Columns that hold one series several times: the same array, equal copies as a list or an array, copies
    changed in one record, and copies whose bits differ where their values compare equal or are NaN."""
    sources = [array("d", data.draw(runs(rows), label=f"source {i}")) for i in range(data.draw(st.integers(1, 3)))]
    for blk in data.draw(st.sets(st.integers(0, rows // BLOCK)), label="held blocks"):
        a, b = blk * BLOCK, min(blk * BLOCK + BLOCK, rows)
        for source in sources:
            source[a:b] = source[a:a + 1] * (b - a)
    columns = {}
    for n in range(data.draw(st.integers(2, 8))):
        source = data.draw(st.sampled_from(sources))
        copy = data.draw(st.sampled_from(["same array", "list", "array", "one record changed", "other bits"]))
        if copy == "same array":
            columns[f"c{n}"] = source
        elif copy == "list":
            columns[f"c{n}"] = list(source)
        elif copy == "array":
            columns[f"c{n}"] = array("d", source)
        elif copy == "one record changed":
            series = array("d", source)
            k = data.draw(st.one_of(st.integers(0, rows - 1), st.integers(min(BLOCK, rows - 1), rows - 1)))
            series[k] = data.draw(st.one_of(st.sampled_from(SPECIALS), st.floats()).filter(
                lambda v: struct.pack("<d", v) != struct.pack("<d", series[k])))
            columns[f"c{n}"] = series
        else:
            columns[f"c{n}"] = array("d", map(_flip_bits, source))
    assert_renders_as_plain(Trace(SimConfig(), columns))


@pytest.mark.parametrize("changed_first", [True, False])
def test_copies_equal_over_one_block_share_no_text_in_the_next(changed_first):
    """Two series equal over the first block and apart in the second: the first block's shared text stays there."""
    source = array("d", [k / 3 for k in range(2 * BLOCK + 1)])
    changed = array("d", source)
    changed[BLOCK + 1] = -0.0
    columns = {"changed": changed, "source": source} if changed_first else {"source": source, "changed": changed}
    assert_renders_as_plain(Trace(SimConfig(), {**columns, "copy": list(source)}))


def test_integer_array_with_the_bytes_of_a_double_column_shares_no_text():
    doubles = array("d", [k / 3 for k in range(BLOCK + 5)])
    integers = array("q", doubles.tobytes())
    assert integers.tobytes() == doubles.tobytes()
    assert_renders_as_plain(Trace(SimConfig(), {"d": doubles, "q": integers, "f": array("f", doubles)}))


@pytest.mark.parametrize("columns", [{}, {"t_ms": array("d")}, {"t_ms": [], "NET": []}])
def test_table_without_records_renders_only_its_header(columns):
    chunks = assert_renders_as_plain(Trace(SimConfig(), columns))
    assert chunks == [(",".join(columns) + "\n").encode()]


def assert_writes_one_record_per_chunk(trace: Trace, path: str):
    """The header, then one chunk per record; ``write_trace`` writes the bytes of ``to_csv()``."""
    chunks = assert_renders_as_plain(trace)
    assert len(chunks) == 1 + trace.records
    write_trace(trace, path)
    with open(path, "rb") as fh:
        assert fh.read() == trace.to_csv().encode()


def test_wide_blocks_are_rendered_one_record_per_chunk(tmp_path):
    """40 columns make a block of about 150 kB: a held block and a varying one are each one chunk per record."""
    times = [1.0] * BLOCK + [float(k) for k in range(BLOCK + 10)]
    columns = {"t_ms": array("d", times), **{f"c{i}": [v / i for v in times] for i in range(1, 40)}}
    assert_writes_one_record_per_chunk(Trace(SimConfig(), columns), str(tmp_path / "wide.csv"))


def test_wide_blocks_of_shared_text_are_rendered_one_record_per_chunk(tmp_path):
    """As above, but 39 of the 40 columns hold one of three series, as the same array or as an equal list."""
    times = [1.0] * BLOCK + [float(k) for k in range(BLOCK + 10)]
    series = [array("d", [v / i for v in times]) for i in (1, 3, 7)]
    columns = {"t_ms": array("d", times), **{f"c{i}": series[i % 3] if i % 2 else list(series[i % 3])
                                             for i in range(1, 40)}}
    assert_writes_one_record_per_chunk(Trace(SimConfig(), columns), str(tmp_path / "wide_shared.csv"))


@given(st.one_of(st.floats(), st.sampled_from(SPECIALS), st.integers(0, 2**64 - 1).map(_double)))
@settings(max_examples=500)
def test_bytes_format_is_the_ascii_of_the_text_format(v):
    assert b"%.8e" % v == ("%.8e" % v).encode("ascii")


def test_non_ascii_column_name_is_written_as_utf8(tmp_path):
    columns = {"t_ms": array("d", [1.0, 2.0]), "V\u00b5_\u0394": [0.5, -0.0]}
    trace = Trace(SimConfig(horizon=2.0), columns)
    assert_renders_as_plain(trace)
    write_trace(trace, str(tmp_path / "trace.csv"))
    header, *records = (tmp_path / "trace.csv").read_bytes().split(b"\n")
    assert header == "t_ms,V\u00b5_\u0394".encode("utf-8") == b"t_ms,V\xc2\xb5_\xce\x94"
    assert records == [b"1.00000000e+00,5.00000000e-01", b"2.00000000e+00,-0.00000000e+00", b""]
    assert trace.to_csv().splitlines()[0] == "t_ms,V\u00b5_\u0394"
