"""CSV layer: the vectorized reader against its row loop, the block writer
against the per-cell ``csv.writer`` it replaced, and their memory."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regfit import cli, data
from regfit.errors import ValidationError

PROPERTY = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1.0 / 3.0]
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
any_float = st.floats() | st.sampled_from(EDGE_FLOATS + [-np.inf, np.inf, np.nan])


def _old_table_bytes(header, rows, lineterminator):
    """The writer this layer had before: one csv.writer row per table row
    and ``format(v, ".17g")`` per cell."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=lineterminator)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(v), ".17g") for v in row])
    return buf.getvalue().encode("utf-8")


def _outcome(read, path, targets_required):
    """A reader's result as comparable data: its array and column positions,
    or its error message."""
    try:
        body, x_pos, y_pos = read(path, targets_required)
    except ValidationError as exc:
        return "error", str(exc)
    return "ok", body.tobytes(), body.shape, x_pos, y_pos


# ---------------------------------------------------------------------------
# round trip

@PROPERTY
@given(n=st.integers(1, 30), n_x=st.integers(1, 3), n_y=st.integers(1, 2), data_=st.data())
def test_save_load_round_trip_is_bit_exact(tmp_path, n, n_x, n_y, data_):
    X = np.array(data_.draw(st.lists(finite, min_size=n * n_x, max_size=n * n_x))).reshape(n, n_x)
    Y = np.array(data_.draw(st.lists(finite, min_size=n * n_y, max_size=n * n_y))).reshape(n, n_y)
    p = tmp_path / "round.csv"
    data.save_csv(data.Dataset(X, Y), p)
    back = data.load_csv(p)
    # int64 views compare the bits, so -0.0 must come back as -0.0
    np.testing.assert_array_equal(back.inputs.view(np.int64), X.view(np.int64))
    np.testing.assert_array_equal(back.targets.view(np.int64), Y.view(np.int64))


# ---------------------------------------------------------------------------
# fuzzed text

CELL_TOKENS = ["", " ", "\t", '"', '"1.5"', "_", "1_0", "#", "#c", "inf", "-inf", "nan",
               "NaN", "Infinity", "1e999", "1e5", ".5", "5.", "-0", "+1", "0x1p3", " 2 ",
               "1d3", "１", "1 2"]
numeric_cells = finite.map(repr) | st.integers(-10**6, 10**6).map(str)
noisy_cells = st.one_of(
    numeric_cells,
    st.sampled_from(CELL_TOKENS),
    st.text(alphabet='0123456789.-+eE _#"nafiINF\t', max_size=6),
)
line_ends = st.sampled_from(["\n", "\r\n", "\r"])
headers = st.sampled_from(["x0,y0", "x0", "y0,x0", "x0,x1,y0", "x0,y0,y1", "x1,y0",
                           "x0,y0,", '"x0",y0', "x0, y0", "a,b"])


@st.composite
def csv_texts(draw):
    """About half are well-formed tables of numbers; the rest mix in odd
    cells and rows of the wrong width."""
    header = draw(headers)
    width = header.count(",") + 1
    noisy = draw(st.booleans())
    cells = noisy_cells if noisy else numeric_cells
    widths = [width, width, width, width - 1, width + 1, 0] if noisy else [width]
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.sampled_from(widths))
        lines.append(",".join(draw(st.lists(cells, min_size=n, max_size=n))))
    ends = draw(st.lists(line_ends, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@PROPERTY
@given(text=csv_texts())
def test_fuzzed_text_raises_only_validation_error(tmp_path, text):
    p = tmp_path / "fuzz.csv"
    p.write_bytes(text.encode("utf-8"))
    for load in (data.load_csv, data.load_inputs_csv):
        try:
            load(p)
        except ValidationError:
            pass


@PROPERTY
@given(text=csv_texts())
def test_fast_path_agrees_with_row_loop(tmp_path, text):
    p = tmp_path / "fuzz.csv"
    p.write_bytes(text.encode("utf-8"))
    for targets_required in (True, False):
        assert (_outcome(data._read_table, p, targets_required)
                == _outcome(data._read_rows, p, targets_required))


def test_well_formed_file_never_reaches_the_row_loop(tmp_path, monkeypatch):
    p = tmp_path / "d.csv"
    p.write_text("x0,y0\r\n0.5,-1e-300\r\n\r\n 2 ,3\r\n")
    expected = data.load_csv(p)

    def refuse(path, targets_required):
        raise AssertionError("row loop used")

    monkeypatch.setattr(data, "_read_rows", refuse)
    got = data.load_csv(p)
    np.testing.assert_array_equal(got.inputs, expected.inputs)
    np.testing.assert_array_equal(got.targets, [[-1e-300], [3.0]])


@pytest.mark.parametrize("body", ['"1.5",2\n', "1_0,2\n", " 1 ,\t2\n", "1,2\r\n\r\n3,4\r\n"])
def test_row_loop_accepts_what_float_accepts(tmp_path, body):
    p = tmp_path / "d.csv"
    p.write_text("x0,y0\n" + body, newline="")
    d = data.load_csv(p)
    assert np.isfinite(d.inputs).all() and d.n_points >= 1


def test_invalid_utf8_is_a_validation_error(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"x0,y0\n1,\xff\n")
    with pytest.raises(ValidationError, match="not UTF-8"):
        data.load_csv(p)


def test_inputs_follow_load_csv_row_rules(tmp_path):
    p = tmp_path / "q.csv"
    p.write_text("x0,y0\n1.0,2.0\n3.0\n")
    with pytest.raises(ValidationError, match=r"row 2 has 1 cells, expected 2"):
        data.load_inputs_csv(p)
    p.write_text("x0,y0\n1.0,abc\n")
    with pytest.raises(ValidationError, match=r"non-numeric cell 'abc' at row 1, column 'y0'"):
        data.load_inputs_csv(p)
    p.write_text("x1,x0\n1.0,2.0\n")
    np.testing.assert_array_equal(data.load_inputs_csv(p), [[2.0, 1.0]])


# ---------------------------------------------------------------------------
# writer

@PROPERTY
@given(n=st.integers(0, 20), width=st.integers(1, 4), newline=st.sampled_from(["\n", "\r\n"]),
       data_=st.data())
def test_block_writer_bytes_equal_csv_writer(tmp_path, n, width, newline, data_):
    values = data_.draw(st.lists(any_float, min_size=n * width, max_size=n * width))
    table = np.array(values, dtype=float).reshape(n, width)
    header = [f"c{i}" for i in range(width)]
    p = tmp_path / "t.csv"
    data._write_table(p, header, (table,), newline)
    assert p.read_bytes() == _old_table_bytes(header, table, newline)


def test_writers_match_csv_writer_across_chunks(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * data.WRITE_CHUNK_ROWS + 5
    d = data.Dataset(rng.standard_normal((n, 2)), rng.standard_normal((n, 1)))
    data.save_csv(d, tmp_path / "d.csv")
    expected = _old_table_bytes(["x0", "x1", "y0"], np.hstack([d.inputs, d.targets]), "\r\n")
    assert (tmp_path / "d.csv").read_bytes() == expected

    rows = np.column_stack([np.arange(n), rng.standard_normal(n)])
    cli._write_csv(tmp_path / "h.csv", ["epoch", "loss"], rows)
    assert (tmp_path / "h.csv").read_bytes() == _old_table_bytes(["epoch", "loss"], rows, "\n")


def test_zero_row_table_writes_only_its_header(tmp_path):
    cli._write_csv(tmp_path / "h.csv", ["epoch", "loss"], np.empty((0, 2)))
    assert (tmp_path / "h.csv").read_bytes() == b"epoch,loss\n"


def test_writer_memory_is_bounded_by_one_chunk(tmp_path):
    """The peak while writing a 50k x 3 table stays near that of a table of
    one chunk; formatting the whole table at once would be about 6x it."""
    rng = np.random.default_rng(4)

    def peak(n_rows):
        d = data.Dataset(rng.standard_normal((n_rows, 2)), rng.standard_normal((n_rows, 1)))
        tracemalloc.start()
        try:
            data.save_csv(d, tmp_path / "m.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_chunk = peak(data.WRITE_CHUNK_ROWS)
    assert peak(50_000) < 1.5 * one_chunk


# ---------------------------------------------------------------------------
# byte-order mark and header messages

@pytest.mark.parametrize("body", ["1.5,2\r\n-3,4e-3\r\n", '"1.5",2\r\n-3,4e-3\r\n'],
                         ids=["fast-path", "row-loop"])
def test_byte_order_mark_is_skipped(tmp_path, body):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(("x0,y0\r\n" + body).encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = data.load_csv(plain), data.load_csv(marked)
    np.testing.assert_array_equal(b.inputs, a.inputs)
    np.testing.assert_array_equal(b.targets, a.targets)
    np.testing.assert_array_equal(data.load_inputs_csv(marked), data.load_inputs_csv(plain))


@pytest.mark.parametrize("header", ["x0,q", "x0,x0,y0", "y0", "x1,y0", "x0,y1"])
def test_header_messages_name_the_file(tmp_path, header):
    p = tmp_path / "named.csv"
    p.write_text(header + "\n1,2\n")
    with pytest.raises(ValidationError, match=r"^.*named\.csv: "):
        data.load_csv(p)
