"""Deterministic table serialization."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightningfit import InputError, ResultTable, render_table, write_table
from lightningfit.version import __version__


def _sample():
    return ResultTable(
        columns=("name", "n", "err", "flag", "note"),
        rows=[("a", 3, 0.1, True, None),
              ("b", 7, 1.2345678901234567e-11, False, "skipped")],
        meta={"kind": "demo"})


def test_csv_round_trip_is_bit_exact():
    t = _sample()
    header, first, second = csv.reader(io.StringIO(render_table(t, "csv")))
    assert tuple(header) == t.columns
    # floats survive shortest-repr round trip exactly
    assert float(second[2]) == t.rows[1][2]
    assert first[1] == "3"
    assert first[4] == ""  # None
    # bools render as 0/1 ints
    assert first[3] == "1"


def test_rendering_is_deterministic():
    a = render_table(_sample(), "csv")
    b = render_table(_sample(), "csv")
    assert a == b
    ja = render_table(_sample(), "json")
    jb = render_table(_sample(), "json")
    assert ja == jb


def test_json_payload_structure():
    doc = json.loads(render_table(_sample(), "json"))
    assert doc["columns"] == ["name", "n", "err", "flag", "note"]
    assert doc["rows"][0][1] == 3
    assert doc["metadata"]["kind"] == "demo"
    assert doc["metadata"]["version"] == __version__


def test_numpy_scalars_are_demoted():
    """np.float64 cells must not leak their numpy repr into the CSV."""
    t = ResultTable(columns=("x",), rows=[(np.float64(0.5),), (np.int64(3),)])
    text = render_table(t, "csv")
    assert "np.float64" not in text
    assert text.splitlines()[1] == "0.5"
    assert type(t.rows[0][0]) is float
    assert type(t.rows[1][0]) is int
    # and json stays serializable
    json.loads(render_table(t, "json"))


def test_json_writes_non_finite_floats_as_null():
    t = ResultTable(columns=("x", "status"),
                    rows=[(float("nan"), "failed"), (float("-inf"), "failed"),
                          (np.float64("inf"), "failed"), (0.5, "")],
                    meta={"best": float("nan"), "runs": [{"err": float("inf")}]})
    doc = json.loads(render_table(t, "json"),
                     parse_constant=lambda token: pytest.fail(token))
    assert [row[0] for row in doc["rows"]] == [None, None, None, 0.5]
    assert doc["metadata"]["best"] is None
    assert doc["metadata"]["runs"] == [{"err": None}]
    # CSV keeps the float repr
    assert render_table(t, "csv").splitlines()[1] == "nan,failed"


def test_empty_table_renders_header_only():
    t = ResultTable(columns=("a", "b"), rows=[])
    assert render_table(t, "csv") == "a,b\n"


def test_ragged_rows_rejected():
    with pytest.raises(InputError):
        ResultTable(columns=("a", "b"), rows=[(1,)])


def test_unknown_format_rejected():
    with pytest.raises(InputError):
        render_table(_sample(), "yaml")


def test_column_access():
    t = _sample()
    assert t.column("n") == [3, 7]
    assert len(t) == 2
    with pytest.raises(InputError):
        t.column("nope")


def test_write_table_to_path(tmp_path):
    p = tmp_path / "out.csv"
    text = write_table(_sample(), "csv", path=str(p))
    assert p.read_text(encoding="utf-8") == text


def test_write_table_bad_path():
    with pytest.raises(InputError):
        write_table(_sample(), "csv", path="/nonexistent-dir/x/y.csv")


def test_meta_version_injected_not_overwritten():
    t = ResultTable(columns=("a",), rows=[], meta={"version": "x"})
    assert t.meta["version"] == "x"
    assert _sample().meta["version"] == __version__


def _is_label(text: str) -> bool:
    """Text that no number parser takes, so it must come back as a string."""
    try:
        float(text)
    except ValueError:
        return text != ""
    return False


_CELLS = st.one_of(
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(math.nan),
    st.text(alphabet="abcxyz_- ,\"'\n", max_size=8).filter(_is_label))


@settings(max_examples=80, deadline=None)
@given(table=st.integers(1, 5).flatmap(lambda width: st.tuples(
    st.lists(st.text(alphabet="abcdefghij_", min_size=1, max_size=6),
             min_size=width, max_size=width, unique=True),
    st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=6))))
def test_csv_round_trip_property(table):
    """The csv module reads render_table(t, "csv") back to t's columns and
    cells: ints and floats convert back from their text bit for bit (nan
    as nan), labels come back as they were."""
    columns, rows = table
    t = ResultTable(columns=columns, rows=[tuple(r) for r in rows])
    header, *back = csv.reader(io.StringIO(render_table(t, "csv")))
    assert tuple(header) == t.columns
    assert len(back) == len(t.rows)
    for got_row, want_row in zip(back, t.rows):
        for text, want in zip(got_row, want_row):
            got = text if isinstance(want, str) else type(want)(text)
            if isinstance(want, float) and math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == want
                if isinstance(want, float):
                    assert math.copysign(1.0, got) == math.copysign(1.0, want)
