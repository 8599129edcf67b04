"""Tabular IO against the reference row-by-row loader and csv.writer saver.

``load_tabular`` must return bit-identical benchmarks on valid files and
raise the same exception, with the same message, on faulty ones;
``save_tabular`` must write the same bytes.
"""

import csv
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import configs_from, ref_load_tabular, ref_save_tabular
from uvp import Configuration, InvalidParams, ParseError, instances
from uvp.instances import gen_smooth, load_tabular, save_tabular

SETTINGS = settings(
    deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

_VALUES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, -1e-10, 1.0 + 1e-10, -1e-9, 1.0 + 1e-9]),
)
_LIN = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 1.0]),
)
_LOG = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(1e-3, 1e3),
)


def _outcome(load, path):
    """What loading ``path`` gives: the exact benchmark, or the exception raised."""
    try:
        bench = load(path)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return ("raises", type(exc), str(exc))
    return (
        "loads",
        bench.curves.dtype,
        bench.curves.shape,
        bench.curves.tobytes(),
        [(c.id, [repr(x) for x in c.coords]) for c in bench.configs],
    )


def _respell(draw, text):
    """An equivalent spelling: padded, signed, with a digit separator, or a
    zero of either sign (equal, yet a different float for coordinates)."""
    style = draw(st.sampled_from(["plain", "pad", "plus", "underscore", "zero"]))
    if style == "zero" and float(text) == 0:
        ints = ["0", "-0", "00"]
        return draw(st.sampled_from(ints if text.isdigit() else ints + ["0.0", "-0.0", "0e5"]))
    if style == "pad":
        return " " * draw(st.integers(1, 2)) + text + " " * draw(st.integers(0, 2))
    if style == "plus" and not text.startswith("-"):
        return "+" + text
    if style == "underscore":
        digits = [i for i in range(1, len(text)) if text[i - 1].isdigit() and text[i].isdigit()]
        if digits:
            at = draw(st.sampled_from(digits))
            return text[:at] + "_" + text[at:]
    return text


@st.composite
def valid_tables(draw):
    """Rows of a valid file (header, optional scale line, data) as lists of cells."""
    n = draw(st.integers(1, 5))
    horizon = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    scales = draw(st.none() | st.lists(st.sampled_from(["lin", "log"]), min_size=d, max_size=d))
    flags = scales or ["lin"] * d
    points = [[draw(_LOG if f == "log" else _LIN) for f in flags] for _ in range(n)]
    data = []
    for i in range(n):
        for b in range(1, horizon + 1):
            data.append(
                [_respell(draw, str(i))]
                + [_respell(draw, repr(x)) for x in points[i]]
                + [_respell(draw, str(b)), _respell(draw, repr(draw(_VALUES)))]
            )
    data = draw(st.permutations(data))
    for _ in range(draw(st.integers(0, 3))):
        data.insert(draw(st.integers(0, len(data))), draw(st.sampled_from([[], ["  "]])))
    rows = [["id", *(f"x{j}" for j in range(d)), "b", "value"]]
    if scales is not None:
        rows.append(["scale", *scales])
    return rows + data


def _write(path, rows, newline="\n"):
    path.write_text("".join(",".join(row) + newline for row in rows), encoding="utf-8")
    return str(path)


def _row_parse_unreachable():
    fail = AssertionError("a valid file reached the row-by-row parse")
    return mock.patch("uvp.instances._csv_columns", side_effect=fail)


# the bytes ``_plain`` lets numpy read straight from the file, line ends aside
_LANE = set("0123456789eE.+-, ")


def _on_the_lane(rows):
    """Whether the data lines of ``rows`` hold only lane bytes, none of them
    a whitespace-only line (numpy refuses one; csv.reader skips it)."""
    start = 2 if rows[1][:1] == ["scale"] else 1
    lines = [",".join(row) for row in rows[start:]]
    return all(set(line) <= _LANE and (line.strip() or not line) for line in lines)


@SETTINGS
@given(rows=valid_tables(), newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_valid_files_load_bit_for_bit(tmp_path, rows, newline):
    path = _write(tmp_path / "valid.csv", rows, newline)
    want = _outcome(ref_load_tabular, path)
    assert want[0] == "loads" or "span more than the float range" in want[2]
    if want[0] == "loads" and _on_the_lane(rows):
        with _row_parse_unreachable():
            assert _outcome(load_tabular, path) == want
    else:
        assert _outcome(load_tabular, path) == want


_FAULTS = [
    "coordinate", "id", "budget", "value", "unparseable", "drop", "duplicate", "width",
    "blank", "header", "scale", "same-coord",
]


def _fault(draw, rows):
    """Apply one random fault to the rows of a file, in place."""
    kind = draw(st.sampled_from(_FAULTS))
    if kind == "header":
        rows[0] = draw(st.sampled_from([
            ["idx", "x0", "b", "value"], ["id", "x1", "b", "value"], ["id", "b", "value"],
            ["id", "x0", "value"], [], rows[0] + ["extra"], [" id ", *rows[0][1:]],
        ]))
        return
    if kind == "scale":
        line = draw(st.sampled_from([["scale", "lug"], ["scale"], ["scale", "log", "log", "log"],
                                     [" scale ", *["log"] * (len(rows[0]) - 3)]]))
        if len(rows) > 1 and rows[1][:1] == ["scale"]:
            rows[1] = line
        else:
            rows.insert(min(1, len(rows)), line)
        return
    start = 2 if len(rows) > 1 and rows[1][:1] == ["scale"] else 1
    data = [i for i in range(start, len(rows)) if len(rows[i]) > 1]
    if not data:
        rows.append(draw(st.sampled_from([["0", "0.5", "1", "0.5"], [], ["1", "2"]])))
        return
    i = draw(st.sampled_from(data))
    row = rows[i]
    if kind == "coordinate" and len(row) > 3:
        row[draw(st.integers(1, len(row) - 3))] = draw(st.sampled_from(
            ["7.5", "-7.5", "0.0", "-0.0", "nan", "inf", "-inf", "1e999", "99999999999999999999"]
        ))
    elif kind == "id":
        row[0] = str(draw(st.integers(-1, 6)))
    elif kind == "budget":
        row[-2] = str(draw(st.integers(-1, 5)))
    elif kind == "value":
        row[-1] = draw(st.sampled_from(["1.1", "-0.5", "nan", "inf", "-inf", "1e999", "-1e-8"]))
    elif kind == "unparseable":
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(
            ["zap", "", "  ", "1_", '"', "3.5", "0x1", "99999999999999999999"]
        ))
    elif kind == "drop":
        del rows[i]
    elif kind == "duplicate":
        rows.insert(draw(st.integers(start, len(rows))), list(row))
    elif kind == "width":
        rows[i] = row + ["0"] if draw(st.booleans()) else row[:-1]
    elif kind == "blank":
        rows.insert(draw(st.integers(1, len(rows))), draw(st.sampled_from([[], [" "], ["", ""]])))
    elif kind == "same-coord" and len(row) > 3:
        # one coordinate changed in every row of one id: reaches the
        # log-scale and normalisation checks
        j = draw(st.integers(1, len(row) - 3))
        new = draw(st.sampled_from(["0.0", "-1.0", "1e308", "-1e308", "inf", "2.5"]))
        for other in rows[start:]:
            if other[:1] == row[:1] and j < len(other):
                other[j] = new


def _outcome_via_row_parse(path):
    """``_outcome(load_tabular, path)``, asserting that every error follows the row-by-row parse."""
    with mock.patch("uvp.instances._csv_columns", wraps=instances._csv_columns) as parse:
        got = _outcome(load_tabular, path)
    assert got[0] == "loads" or parse.called
    return got


@settings(SETTINGS, max_examples=400)
@given(rows=valid_tables(), data=st.data())
def test_faulty_files_raise_like_the_reference(tmp_path, rows, data):
    for _ in range(data.draw(st.integers(1, 3))):
        _fault(data.draw, rows)
    path = _write(tmp_path / "faulty.csv", rows)
    assert _outcome_via_row_parse(path) == _outcome(ref_load_tabular, path)


@pytest.mark.parametrize(
    "raw",
    [
        b"",
        b"\n",
        b"id,x0,b,value\n",
        b"id,x0,b,value\n0,\xff,1,0.5\n",
        b"id,x0,b,value\n0,0.5,1,0.5\n1,0.5,1,0.5\n" + b"\xfe" * 10,
        b'id,x0,b,value\n0,"0.5\n,1,0.5\n',
        b"id,x0,b,value\n0,0.5,1,0.5\n1," + b"1" * 200_000 + b",1,0.5\n",
        b"id,x0,b,value\n0,nan,1,0.5\n",
        b"id,x0,b,value\n0,0.5,1,nan\n",
        b"id,x0,b,value\n99999999999999999999,0.5,1,0.5\n",
        # a SchemaError: budgets are counted, never listed as 1..b
        b"id,x0,b,value\n0,0.5,99999999999999999999,0.5\n",
        b"id,x0,b,value\n0,0.5,100000000000,0.5\n",
        b"id,x0,b,value\n1,0.5,1,0.5\n2,0.5,1,0.5\n",
        b"id,x0,b,value\n1,0.5,1,0.5\n1,0.5,1,0.5\n",
        b"id,x0,b,value\n0,-1e308,1,0.5\n1,1e308,1,0.5\n",
        b"id,x0,b,value\n0,inf,1,0.5\n1,inf,1,0.5\n",
        b"id,x0,b,value\nscale,log\n0,1.0,1,0.5\n1,0.0,1,0.5\n",
        b"id,x0,b,value\n" + b"-3,0.5,-2,0.5\n" * 4,
        b"id,x0,b,value\n10000000000000000,0.5,1,0.5\n",
        # a finite field past csv.field_size_limit() after the first two lines
        b"id,x0,b,value\n0,0.5,1,0.5\n1,0." + b"0" * 200_000 + b"1,1,0.5\n",
        # underscores that Python's int and float refuse
        b"id,x0,b,value\n0,1__0,1,0.5\n",
        b"id,x0,b,value\n_0,0.5,1,0.5\n",
        b"id,x0,b,value\n0,0.5,1_,0.5\n",
        b"id,x0,b,value\n0,1_.5,1,0.5\n",
        b"id,x0,b,value\n0,1e_5,1,0.5\n",
        b"id,x0,b,value\n0,0.5,1,0.5#\n",
        # integers spelled as floats, which some numpy versions read through float
        b"id,x0,b,value\n0,0.5,1.0,0.5\n",
        b"id,x0,b,value\n0.0,0.5,1,0.5\n",
        # numpy strips \x1c around a number, and reads U+2460 (circled digit
        # one) in an integer as the digit 9264
        b"id,x0,b,value\n0,0.5\x1c,1,0.5\n",
        b"id,x0,b,value\n"
        + b"".join(b"%d,0.5,1,0.5\n" % i for i in range(9264))
        + "\u2460,0.5,1,0.5\n".encode(),
    ],
)
def test_unreadable_and_edge_files_raise_like_the_reference(tmp_path, raw):
    path = tmp_path / "edge.csv"
    path.write_bytes(raw)
    want = _outcome(ref_load_tabular, str(path))
    assert want[0] == "raises"
    assert _outcome_via_row_parse(str(path)) == want


@pytest.mark.parametrize(
    "raw",
    [
        b'id,x0,b,value\n0,"0.5",1,"0.25"\n1,1.5,"1",0.5\n',
        b'id,x0,b,value\n""\n0,0.5,1,0.5\n1,1.5,1,0.5\n',
        "id,x0,b,value\n0,\t0.5\xa0,1, 0.5\t\n1,\xa01.5,\t1,0.5\n".encode(),
        b"id,x0,b,value\r0,0.5,1,0.5\r1,1.5,1,0.5\r",
        b"id,x0,b,value\n0,1e1_0,1,0.5\n1,0.5,1,0.5\n",
    ],
)
def test_unusual_valid_spellings_load_like_the_reference(tmp_path, raw):
    # numpy reads some of these and the row-by-row parse the rest
    path = tmp_path / "unusual.csv"
    path.write_bytes(raw)
    want = _outcome(ref_load_tabular, str(path))
    assert want[0] == "loads"
    assert _outcome(load_tabular, str(path)) == want


@pytest.mark.parametrize("digits, outcome", [(14, "loads"), (15, "raises")])
def test_csv_field_limit_applies_to_each_field(tmp_path, digits, outcome):
    # every line is longer than the limit; only a field longer than it is refused
    rows = [["id", "x0", "b", "value"], ["0", "0." + "5" * digits, "1", "0.5"]]
    rows.append(["1", "0.25", "1", "1"])
    path = _write(tmp_path / "limit.csv", rows)
    old = csv.field_size_limit(16)
    try:
        want = _outcome(ref_load_tabular, path)
        assert want[0] == outcome
        if outcome == "loads":
            with _row_parse_unreachable():
                assert _outcome(load_tabular, path) == want
        else:
            assert _outcome_via_row_parse(path) == want
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("respell", ["crlf", "underscore"])
@pytest.mark.parametrize("at", [3, 5])
@pytest.mark.parametrize("digits, outcome", [(14, "loads"), (15, "raises")])
def test_csv_field_limit_applies_past_the_header_lines(tmp_path, respell, at, digits, outcome):
    # line 2 may be a scale line, which _layout reads with csv.reader; a
    # field from line 3 on is checked by _plain, which passes a CRLF file
    # within the limit to numpy, or by the row-by-row parse, which a digit
    # separator sends the file to. Every data line is longer than the
    # limit, and the row of 15-character fields (16 with a CR) is within it.
    rows = [
        ["id", "x0", "b", "value"],
        ["0", "0.5_0" if respell == "underscore" else "0.50", "1", "0.5"],
        ["1", "0.2500000000000", "1", "0.1250000000000"],
        ["2", "0.75", "1", "0.25"],
        ["3", "0.125", "1", "1"],
    ]
    rows[at - 1][1] = "0." + "5" * digits
    path = _write(tmp_path / "limit.csv", rows, "\r\n" if respell == "crlf" else "\n")
    old = csv.field_size_limit(16)
    try:
        with mock.patch("uvp.instances._csv_columns", wraps=instances._csv_columns) as parse:
            got = _outcome_via_row_parse(path)
        assert parse.called == (respell == "underscore" or outcome == "raises")
        want = _outcome(ref_load_tabular, path)
        assert want[0] == outcome
        assert got == want
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize(
    "row, outcome",
    [
        # a last field at the limit whose CR _plain counts: the row parse loads it
        (b"0,0.5,1,0." + b"5" * 14 + b"\r\n", "loads"),
        # padding counts toward a field's length, in csv.reader as in _plain
        (b"0, 0." + b"5" * 13 + b",1,0.5\n", "loads"),
        (b"0, 0." + b"5" * 14 + b",1,0.5\n", "raises"),
    ],
)
def test_csv_field_limit_counts_line_ends_and_padding(tmp_path, row, outcome):
    # the row is line 3, past the two lines _layout reads with csv.reader
    path = tmp_path / "limit.csv"
    path.write_bytes(b"id,x0,b,value\r\n1,0.25,1,1\r\n" + row)
    old = csv.field_size_limit(16)
    try:
        want = _outcome(ref_load_tabular, str(path))
        assert want[0] == outcome
        assert _outcome_via_row_parse(str(path)) == want
    finally:
        csv.field_size_limit(old)


# ---------------------------------------------------------------------------
# the plain-file lane: numpy reads the open file, and a file of lane bytes
# only that loads never reaches the row-by-row parse


@pytest.mark.parametrize("scale", [False, True])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("pad", ["", " "])
def test_plain_files_skip_the_row_parse(tmp_path, scale, newline, pad):
    rows = [["id", "x0", "x1", "b", "value"], *([["scale", "lin", "log"]] if scale else [])]
    rows += [[], ["0", "-0.0", "1e+300", "1", "5e-324"], ["0", "-0.0", "1e+300", "2", "0.1"], []]
    rows += [["1", "2.5", "3E-5", "2", "1.0"], ["1", "2.5", "3E-5", "1", "+.5"], []]
    start = 2 if scale else 1
    rows[start:] = [[pad + cell + pad for cell in row] for row in rows[start:]]
    path = _write(tmp_path / "plain.csv", rows, newline)
    want = _outcome(ref_load_tabular, path)
    assert want[0] == "loads"
    with _row_parse_unreachable():
        assert _outcome(load_tabular, path) == want


@pytest.mark.parametrize(
    "raw, row_parse",
    [
        (b"id,x0,b,value\n0,1_0.5,1,0.5\n1,0.5,1,0.5\n", True),
        (b"id,x0,b,value\n0, 0.5,1,0.5\n1,0.25,1 ,0.5\n", False),
        (b"id,x0,b,value\r\n0,0.5,1,0.5\r\n1,0.25,1,0.5\r\n", False),
        (b"id,x0,b,value\n0,0.5,1,0.5\r\n1,0.25,1,0.5\n", False),
        (b"id,x0,b,value\r0,0.5,1,0.5\r1,0.25,1,0.5\r", False),
        (b'id,x0,b,value\n0,"0.5",1,0.5\n1,0.25,1,0.5\n', True),
        (b"id,x0,b,value\n0,0.5,1,0.5\n  \n1,0.25,1,0.5\n", True),
    ],
)
def test_respelled_files_load_like_the_reference(tmp_path, raw, row_parse):
    path = tmp_path / "respelled.csv"
    path.write_bytes(raw)
    want = _outcome(ref_load_tabular, str(path))
    assert want[0] == "loads"
    with mock.patch("uvp.instances._csv_columns", wraps=instances._csv_columns) as parse:
        assert _outcome(load_tabular, str(path)) == want
    assert parse.called == row_parse


def _straddling(path, digits, before):
    """A valid file but for one x0 field of ``digits`` digits, ``before`` of
    them ahead of the end of the lane's first chunk."""
    text = "id,x0,b,value\n"
    i = 0
    while len(text) < instances._CHUNK - before - 40:
        text += f"{i},0.5,1,0.5\n"
        i += 1
    lead = f"{i + 1},"
    pad = instances._CHUNK - before - len(lead) - len(text) - len(f"{i},0.5,1,0.5\n")
    text += f"{i},0.5{'0' * pad},1,0.5\n{lead}"
    assert len(text) == instances._CHUNK - before
    path.write_text(text + "1" * digits + ",1,0.5\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "limit, digits, before, outcome",
    [
        (100, 100, 50, "loads"),
        (100, 100, 0, "loads"),
        (100, 100, 100, "loads"),
        (100, 101, 50, "raises"),
        (100, 101, 1, "raises"),
        (100, 101, 0, "raises"),
        (100, 101, 101, "raises"),
        (100, 101, 200, "raises"),
        (None, 200_000, 10, "raises"),
    ],
)
def test_field_limit_holds_across_a_chunk_boundary(tmp_path, limit, digits, before, outcome):
    old = csv.field_size_limit(limit) if limit else csv.field_size_limit()
    try:
        path = _straddling(tmp_path / "straddle.csv", digits, before)
        want = _outcome(ref_load_tabular, path)
        assert want[0] == outcome
        if outcome == "loads":
            with _row_parse_unreachable():
                assert _outcome(load_tabular, path) == want
        else:
            assert "field larger than field limit" in want[2]
            assert _outcome_via_row_parse(path) == want
    finally:
        csv.field_size_limit(old)


_PLAIN_CELLS = st.text(alphabet="0123456789eE.+- ", max_size=6)


@st.composite
def plain_files(draw):
    """The text of a file whose data lines hold only the lane's bytes:
    valid tables in plain spellings, some cells redrawn from that alphabet,
    and LF, CRLF or CR line ends."""
    rows = [[cell.strip().replace("_", "") for cell in row] for row in draw(valid_tables())]
    start = 2 if rows[1][:1] == ["scale"] else 1
    odds = draw(st.sampled_from([0, 30, 5]))  # one cell in ``odds`` is redrawn, none at 0
    for row in rows[start:]:
        if row == [""]:
            row.clear()  # a blank line
        for j in range(len(row)):
            if odds and draw(st.integers(1, odds)) == 1:
                row[j] = draw(_PLAIN_CELLS)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(",".join(row) + newline for row in rows)


@SETTINGS
@given(text=plain_files())
def test_plain_files_load_like_the_reference(tmp_path, text):
    path = tmp_path / "plain.csv"
    path.write_bytes(text.encode())
    with mock.patch("uvp.instances._csv_columns", wraps=instances._csv_columns) as parse:
        got = _outcome(load_tabular, str(path))
    assert got == _outcome(ref_load_tabular, str(path))
    assert got[0] == "raises" or not parse.called


@pytest.mark.filterwarnings("error")
def test_span_overflow_names_the_column_without_warnings(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("id,x0,x1,b,value\n0,0.5,-1e308,1,0.5\n1,0.5,1e308,1,0.5\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"^column 3: coordinates span more than the float range$"):
        load_tabular(str(path))


def test_undecodable_byte_is_reported_on_its_own_line(tmp_path):
    # csv.reader has finished fewer lines than the decoder has read ahead,
    # so its line count would point well before the bad byte
    lines = [b"id,x0,b,value"] + [b"%d,%d.5,1,0.5" % (i, i) for i in range(2000)]
    lines[1501] = b"1500,\xff.5,1,0.5"
    path = tmp_path / "latin.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ParseError) as exc:
        load_tabular(str(path))
    assert str(exc.value) == (
        f"{path}: line 1502 is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"
        " in position 5: invalid start byte"
    )


def test_undecodable_file_mended_while_read_names_no_line(tmp_path):
    # another writer replaces the bad byte between the parse and the scan
    # for its line, so the scan finds no undecodable line
    path = tmp_path / "latin.csv"
    path.write_bytes(b"id,x0,b,value\n0,\xff,1,0.5\n")
    scan = instances._undecodable

    def mended_then_scanned(p):
        path.write_bytes(b"id,x0,b,value\n0,0.5,1,0.5\n")
        return scan(p)

    with mock.patch.object(instances, "_undecodable", mended_then_scanned):
        with pytest.raises(ParseError) as exc:
            load_tabular(str(path))
    assert str(exc.value) == f"{path}: not UTF-8 text"


def test_each_id_keeps_its_first_rows_coordinates(tmp_path):
    # id 0 lists -0.0 first and 0.0 later: equal, but the first one is kept,
    # and the column minimum (0.0) turns it into a normalised -0.0
    rows = [
        ["id", "x0", "b", "value"],
        ["0", "-0.0", "2", "0.5"],
        ["0", "0.0", "1", "0.5"],
        ["1", "0.0", "1", "0.5"],
        ["1", "0.0", "2", "0.5"],
    ]
    path = _write(tmp_path / "zeros.csv", rows)
    assert _outcome(load_tabular, path) == _outcome(ref_load_tabular, path)
    assert repr(load_tabular(path).configs[0].coords[0]) == "-0.0"


def test_value_clamp_keeps_negative_zero(tmp_path):
    rows = [["id", "x0", "b", "value"], ["0", "0.0", "1", "-0.0"], ["0", "0.0", "2", "-1e-10"]]
    path = _write(tmp_path / "negzero.csv", rows)
    assert _outcome(load_tabular, path) == _outcome(ref_load_tabular, path)
    assert repr(float(load_tabular(path).curves[0, 0])) == "-0.0"


def test_load_tabular_peak_stays_within_four_file_sizes(tmp_path):
    # a list of every row's cells takes several times the file
    configs, oracle = gen_smooth(n=300, d=4, horizon=50, epsilon=0.3, seed=0)
    path = str(tmp_path / "curves.csv")
    save_tabular(path, configs, oracle.curves)
    tracemalloc.start()
    try:
        load_tabular(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * os.path.getsize(path)


# ---------------------------------------------------------------------------
# save_tabular


_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, 0.1]),
)
# curve values load_tabular accepts: [0, 1] with its 1e-9 slack at either end
_VALUES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, 0.1, -1e-9, 1.0 + 1e-9]),
)


@SETTINGS
@given(data=st.data())
def test_save_tabular_bytes_match_the_reference(tmp_path, data):
    n = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(1, 3))
    horizon = data.draw(st.integers(1, 4))
    points = [[data.draw(_CELLS) for _ in range(d)] for _ in range(n)]
    curves = [[data.draw(_VALUES) for _ in range(horizon)] for _ in range(n)]
    order = data.draw(st.permutations(range(n)))
    configs = [configs_from(points)[i] for i in order]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_tabular(str(got), configs, np.asarray(curves))
    ref_save_tabular(str(want), configs, np.asarray(curves))
    assert got.read_bytes() == want.read_bytes()


def test_save_tabular_special_floats_match_the_reference(tmp_path):
    configs = configs_from([[-0.0, 5e-324], [1e300, -1e300]])
    curves = np.asarray([[-0.0, 5e-324, 1.0], [0.1, 1.0, -5e-324]])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_tabular(str(got), configs, curves)
    ref_save_tabular(str(want), configs, curves)
    assert got.read_bytes() == want.read_bytes()
    assert b"0,-0.0,5e-324,1,-0.0\n" in got.read_bytes()
    assert b"1,1e+300,-1e+300,3,-5e-324\n" in got.read_bytes()


def test_save_tabular_checks_before_opening(tmp_path):
    configs = configs_from([[0.0], [1.0]])
    path = tmp_path / "never.csv"
    with pytest.raises(InvalidParams):
        save_tabular(str(path), configs, np.zeros((3, 2)))
    with pytest.raises(InvalidParams):
        save_tabular(str(path), [configs[0], Configuration((1.0,), 2)], np.zeros((2, 2)))
    with pytest.raises(InvalidParams):
        save_tabular(str(path), [configs[0], Configuration((0.5, 1.0), 1)], np.zeros((2, 2)))
    with pytest.raises(InvalidParams, match="id 0 "):  # load_tabular would refuse the file
        save_tabular(str(path), [configs[0], Configuration((1.0,), 0)], np.zeros((2, 2)))
    # nor would it load a file with no budget column or a value outside [0, 1]
    with pytest.raises(InvalidParams, match="at least one budget column"):
        save_tabular(str(path), configs[:1], np.zeros((1, 0)))
    for bad in (1.5, 1.0 + 2e-9, -2e-9, float("nan"), float("inf")):
        curves = np.array([[0.25, 0.5], [0.75, bad]])
        with pytest.raises(InvalidParams, match=r"curve 1, budget 2: value .* outside \[0, 1\]"):
            save_tabular(str(path), configs, curves)
    assert not path.exists()
    curves = np.array([[0.25, 0.5], [0.75, 1.0]])
    save_tabular(str(path), configs[::-1], curves)  # any order of ids 0..n-1 is fine
    assert load_tabular(str(path)).curves.tolist() == curves.tolist()


def test_save_tabular_streams_its_lines(tmp_path):
    # the whole 7.7 MB file once held about 26 MB of strings
    configs, oracle = gen_smooth(1500, 4, 50, 0.3, 0)
    tracemalloc.start()
    try:
        save_tabular(str(tmp_path / "s.csv"), configs, oracle.curves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
