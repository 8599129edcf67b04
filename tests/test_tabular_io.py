"""Tabular IO against the reference row-by-row loader and csv.writer saver.

``load_tabular`` must return bit-identical benchmarks on valid files and
raise the same exception, with the same message, on faulty ones;
``save_tabular`` must write the same bytes.
"""

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


def _checked_loader_unreachable():
    fail = AssertionError("a valid file reached the row-by-row loader")
    return mock.patch("uvp.instances._load_tabular_checked", side_effect=fail)


@SETTINGS
@given(rows=valid_tables(), newline=st.sampled_from(["\n", "\r\n"]))
def test_valid_files_load_bit_for_bit(tmp_path, rows, newline):
    path = _write(tmp_path / "valid.csv", rows, newline)
    want = _outcome(ref_load_tabular, path)
    assert want[0] == "loads" or "span more than the float range" in want[2]
    if want[0] == "loads":
        with _checked_loader_unreachable():
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


def _outcome_via_checked_loader(path):
    """``_outcome(load_tabular, path)``, asserting that only the row-by-row loader raises."""
    with mock.patch(
        "uvp.instances._load_tabular_checked", wraps=instances._load_tabular_checked
    ) as checked:
        got = _outcome(load_tabular, path)
    assert got[0] == "loads" or checked.called
    return got


@settings(SETTINGS, max_examples=400)
@given(rows=valid_tables(), data=st.data())
def test_faulty_files_raise_like_the_reference(tmp_path, rows, data):
    for _ in range(data.draw(st.integers(1, 3))):
        _fault(data.draw, rows)
    path = _write(tmp_path / "faulty.csv", rows)
    assert _outcome_via_checked_loader(path) == _outcome(ref_load_tabular, path)


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
        b"id,x0,b,value\n0,0.5,99999999999999999999,0.5\n",
        b"id,x0,b,value\n1,0.5,1,0.5\n2,0.5,1,0.5\n",
        b"id,x0,b,value\n1,0.5,1,0.5\n1,0.5,1,0.5\n",
        b"id,x0,b,value\n0,-1e308,1,0.5\n1,1e308,1,0.5\n",
        b"id,x0,b,value\n0,inf,1,0.5\n1,inf,1,0.5\n",
        b"id,x0,b,value\nscale,log\n0,1.0,1,0.5\n1,0.0,1,0.5\n",
        b"id,x0,b,value\n" + b"-3,0.5,-2,0.5\n" * 4,
        b"id,x0,b,value\n10000000000000000,0.5,1,0.5\n",
    ],
)
def test_unreadable_and_edge_files_raise_like_the_reference(tmp_path, raw):
    path = tmp_path / "edge.csv"
    path.write_bytes(raw)
    want = _outcome(ref_load_tabular, str(path))
    assert want[0] == "raises"
    assert _outcome_via_checked_loader(str(path)) == want


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


@SETTINGS
@given(data=st.data())
def test_save_tabular_bytes_match_the_reference(tmp_path, data):
    n = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(1, 3))
    horizon = data.draw(st.integers(1, 4))
    points = [[data.draw(_CELLS) for _ in range(d)] for _ in range(n)]
    curves = [[data.draw(_CELLS) for _ in range(horizon)] for _ in range(n)]
    order = data.draw(st.permutations(range(n)))
    configs = [configs_from(points)[i] for i in order]
    scales = data.draw(st.none() | st.lists(st.sampled_from(["lin", "log"]), min_size=d, max_size=d))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_tabular(str(got), configs, np.asarray(curves), scales)
    ref_save_tabular(str(want), configs, np.asarray(curves), scales)
    assert got.read_bytes() == want.read_bytes()


def test_save_tabular_special_floats_match_the_reference(tmp_path):
    configs = configs_from([[-0.0, 5e-324], [1e300, -1e300]])
    curves = np.asarray([[-0.0, 5e-324, 1e300], [0.1, 1.0, 0.0]])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_tabular(str(got), configs, curves, ["lin", "log"])
    ref_save_tabular(str(want), configs, curves, ["lin", "log"])
    assert got.read_bytes() == want.read_bytes()
    assert b"0,-0.0,5e-324,1,-0.0\n" in got.read_bytes()
    assert b"1,1e+300,-1e+300,3,0.0\n" in got.read_bytes()


def test_save_tabular_checks_before_opening(tmp_path):
    configs = configs_from([[0.0], [1.0]])
    path = tmp_path / "never.csv"
    with pytest.raises(InvalidParams):
        save_tabular(str(path), configs, np.zeros((3, 2)))
    with pytest.raises(InvalidParams):
        save_tabular(str(path), configs, np.zeros((2, 2)), ["lin", "log"])
    with pytest.raises(IndexError):
        save_tabular(str(path), [configs[0], Configuration((1.0,), 2)], np.zeros((2, 2)))
    assert not path.exists()


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
