"""The CSV table reader against the ``csv`` + ``float`` reader it replaced.

``environments._read_table`` parses each file in one numpy pass.  The
reader it replaced, kept here as the reference, read every row through
``csv.reader`` and every cell through ``float``.  On any table both
accept, the ids and the matrices must match bit for bit; on a table the
reference rejects, the new reader raises the same message.  The one
contract change: a cell that only Python's ``float`` reads (digit-group
underscores, non-ASCII digits) is now a load error naming file, line and
column.
"""

import contextlib
import csv
import io
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preselect import environments
from preselect.cli import main as cli_main
from preselect.environments import bundled_solver_features, load_runtime_table

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOLVER_COLUMNS = ["alpha", "rho", "ps", "wp"]
LIMIT = 131_072


# ---------------------------------------------------------------------------
# The reference: the row-by-row reader, as it stood before the numpy pass
# ---------------------------------------------------------------------------


def reference_rows(path):
    # The whole file is decoded at once, so a bad byte is named by its
    # offset in the file and its line, not by its place in one read.
    data = Path(path).read_bytes()
    body = data[3:] if data.startswith(b"\xef\xbb\xbf") else data
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start + len(data) - len(body)
        line = len(re.findall(rb"\r\n|\r|\n", data[:at])) + 1
        raise ValueError(f"{path}: not UTF-8 text: byte 0x{data[at]:02x} at offset {at} "
                         f"(line {line}): {exc.reason}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
        rows = [(reader.line_num, row) for row in reader if row]
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    columns = {}
    for column, name in enumerate(header, 1):
        if columns.setdefault(name, column) != column:
            raise ValueError(f"{path}: column {name!r} repeated "
                             f"in columns {columns[name]} and {column}")
    return header, rows


def reference_matrix(path, header, rows, skip=0, nonnegative=False):
    for line, row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"{path}: line {line}: expected {len(header)} fields, found {len(row)}"
            )
    try:
        matrix = np.array([row[skip:] for _, row in rows], dtype=float)
    except ValueError:
        for line, row in rows:
            try:
                np.array(row[skip:], dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line}: {exc}") from None
        raise
    ok = np.isfinite(matrix) & (matrix >= 0) if nonnegative else np.isfinite(matrix)
    if not ok.all():
        r, c = np.argwhere(~ok)[0]
        line, row = rows[r]
        rule = "finite and nonnegative" if nonnegative else "finite"
        raise ValueError(
            f"{path}: line {line}: {header[skip + c]} value {row[skip + c]!r} must be {rule}"
        )
    return matrix


def reference_keyed(path, nonnegative=False):
    header, rows = reference_rows(path)
    if header[:1] != ["instance_id"]:
        raise ValueError(f"{path}: first column must be instance_id")
    lines = {}
    for line, row in rows:
        if lines.setdefault(row[0], line) != line:
            raise ValueError(f"{path}: instance_id {row[0]!r} repeated "
                             f"on lines {lines[row[0]]} and {line}")
    return list(lines), reference_matrix(path, header, rows, skip=1, nonnegative=nonnegative)


def reference_solver_features(path):
    header, rows = reference_rows(path)
    if header != SOLVER_COLUMNS:
        raise ValueError(f"{path}: expected header alpha,rho,ps,wp")
    return reference_matrix(path, header, rows)


# ---------------------------------------------------------------------------
# Comparing the two
# ---------------------------------------------------------------------------


def outcome(read):
    """("ok", ids, matrix bits) or ("error", message), parse-error wording aside.

    The reference words a cell that is not a number as ``line N: could
    not convert string to float: ...``, the reader as ``line N: <column>
    value ... is not a decimal number``; both name the file and the line.
    """
    try:
        ids, matrix = read()
    except ValueError as exc:
        message = str(exc)
        parse = re.match(r"(.*: line \d+): (could not convert string to float"
                         r"|.* is not a decimal number$)", message, re.DOTALL)
        return ("error", parse.group(1) + ": not a number" if parse else message)
    return ("ok", ids, matrix.shape, matrix.tobytes())


def contract_change(new):
    """Whether ``new`` rejects a cell that only Python's ``float`` reads."""
    return new[0] == "error" and bool(re.search(r"value '[^']*(_|[^\x00-\x7f])", new[1]))


def compare(path, kind):
    if kind == "solver":
        old = outcome(lambda: ([], reference_solver_features(path)))
        new = outcome(lambda: ([], environments.load_solver_features(path)))
    else:
        nonnegative = kind == "runtimes"
        old = outcome(lambda: reference_keyed(path, nonnegative))
        new = outcome(lambda: environments._read_table(path, nonnegative=nonnegative))
    return old, new


@contextlib.contextmanager
def table_file(data):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "t.csv"
        path.write_bytes(data)
        yield path


# ---------------------------------------------------------------------------
# Generated valid tables: equal ids, bit-identical matrices
# ---------------------------------------------------------------------------

FORMATS = [repr, "{:.6f}".format, "{:.17e}".format, "{:e}".format, "{:g}".format]
ID_CHARS = st.sampled_from(list("abz019_-. ,\"\n\r\t'é"))


def quote(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def tables(draw):
    """A keyed table's text: ids distinct, cells decimal numbers, in any CSV spelling."""
    columns = draw(st.integers(1, 40))
    ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=6), min_size=1, max_size=12,
                        unique=True))
    values = draw(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=columns,
                 max_size=columns),
        min_size=len(ids), max_size=len(ids)))
    if draw(st.booleans()):  # runtimes: nonnegative, subnormals among them
        values = [[abs(v) for v in row] for row in values]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(["instance_id"] + [f"c{j}" for j in range(columns)])]
    for iid, row in zip(ids, values):
        quoted = any(c in iid for c in ',"\r\n') or draw(st.booleans())
        cells = [draw(st.sampled_from(FORMATS))(v) for v in row]
        cells = [quote(c) if draw(st.integers(0, 9)) == 0 else c for c in cells]
        lines.append(",".join([quote(iid) if quoted else iid] + cells))
        if draw(st.integers(0, 3)) == 0:
            lines.append("")  # a blank line
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode()


@settings(max_examples=100, deadline=None)
@given(data=tables(), kind=st.sampled_from(["runtimes", "features"]))
def test_generated_tables_read_as_the_reference_reads_them(data, kind):
    with table_file(data) as path:
        old, new = compare(path, kind)
    assert new == old


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4),
                     min_size=1, max_size=20),
       end=st.sampled_from(["\n", "\r\n", "\r"]), spell=st.sampled_from(FORMATS))
def test_generated_solver_tables_read_as_the_reference_reads_them(rows, end, spell):
    text = end.join([",".join(SOLVER_COLUMNS)] + [",".join(map(spell, row)) for row in rows])
    with table_file(text.encode()) as path:
        old, new = compare(path, "solver")
    assert new == old


# ---------------------------------------------------------------------------
# Arbitrary text: the same table or the same error, but for the contract change
# ---------------------------------------------------------------------------

PIECES = ["a", "b", "1", "2.5", "-1", "1e-320", "1e400", "inf", "nan", ".", "e", ",", ",", ",",
          '"', '"', "\n", "\n", "\r", "\r\n", " ", "\xa0", "1_0", "٣", "x", "\x00"]
HEADERS = ["instance_id,s\n", "instance_id,s,t\n", "instance_id\n", "alpha,rho,ps,wp\n",
           "instance_id,s,s\n", "id,s\n", ""]


@settings(max_examples=400, deadline=None)
@given(header=st.sampled_from(HEADERS), body=st.lists(st.sampled_from(PIECES), max_size=30),
       bom=st.booleans(), kind=st.sampled_from(["runtimes", "features", "solver"]))
def test_any_text_reads_as_the_reference_reads_it(header, body, bom, kind):
    data = (b"\xef\xbb\xbf" if bom else b"") + (header + "".join(body)).encode()
    with table_file(data) as path:
        old, new = compare(path, kind)
    assert new == old or contract_change(new), (old, new)


@pytest.mark.parametrize("text", [
    b"instance_id,s\n\xe9,1\n",
    b"",
    b"\xef\xbb\xbf",
    b"instance_id,s\n\r\n\n\r",
    b"instance_id,s\n\"a\nb\",1\r\"a\rb\",2\r\n",
    b"instance_id,s\n \n",
    b"instance_id\n \n\"\"\n",
    b"instance_id,s\na,\"1\n",
    b"instance_id,s\n\"a,1\n",
    b"instance_id,s\na\"b,1\n\"c\"d,2\n",
], ids=["latin-1", "empty", "bom-only", "blank-lines-only", "quoted-line-breaks",
        "space-line", "one-column-ids", "open-quote-at-end", "open-quote-id", "stray-quotes"])
def test_edge_texts_read_as_the_reference_reads_them(text):
    for kind in ("runtimes", "features", "solver"):
        with table_file(text) as path:
            old, new = compare(path, kind)
        assert new == old


# ---------------------------------------------------------------------------
# The cell limit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text, loads", [
    ("instance_id,s\na," + "0" * (LIMIT - 1) + "1\n", True),
    ("instance_id,s\na," + "0" * LIMIT + "1\n", False),
    ('instance_id,s\na,"' + " " * 60_000 + "\n" + " " * 60_000 + '1"\n', True),
    ('instance_id,s\na,"' + " " * 70_000 + "\n" + " " * 70_000 + '1"\n', False),
    ('instance_id,s\n"' + "a," * 60_000 + '",1\n', True),
    ('instance_id,s\n"' + "a," * 70_000 + '",1\n', False),
    ("instance_id,s\na," + "0" * 40_000 + "1\n" + "b" * 100_000 + ",2\n", True),
    ("instance_id,s\na,1\n" + "\n" * 140_000 + "b,2\n", True),
], ids=["number-at-limit", "number-over", "quoted-number-at-limit", "quoted-number-over",
        "id-with-commas-at-limit", "id-with-commas-over", "long-neighbours", "long-blank-run"])
def test_cell_limit_is_the_reference_limit(text, loads):
    with table_file(text.encode()) as path:
        old, new = compare(path, "features")
    assert new == old
    assert (new[0] == "ok") == loads
    if not loads:
        assert "field larger than field limit (131072)" in new[1]


# ---------------------------------------------------------------------------
# The benchmark's table; the contract change; no row loop
# ---------------------------------------------------------------------------


def benchmark_table(seed, directory):
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import bench_measure

    return bench_measure.write_runtime_table(seed, directory, bundled_solver_features())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_benchmark_table_reads_bit_for_bit(seed, tmp_path):
    runtimes, features = benchmark_table(seed, tmp_path)
    table = load_runtime_table(runtimes, features)
    ids, expected_runtimes = reference_keyed(runtimes, nonnegative=True)
    feature_ids, expected_features = reference_keyed(features)
    assert ids == feature_ids == [f"inst_{i:05d}" for i in range(1200)]
    assert table.runtimes.tobytes() == expected_runtimes.tobytes()
    assert table.instance_features.tobytes() == expected_features.tobytes()
    assert table.runtimes.flags.c_contiguous and table.instance_features.flags.c_contiguous


def test_a_valid_load_sends_no_data_row_through_csv(tmp_path, monkeypatch):
    runtimes, features = benchmark_table(0, tmp_path)
    readers = []
    real = csv.reader

    class CountingReader:
        def __init__(self, *args, **kwargs):
            self.reader, self.rows = real(*args, **kwargs), 0
            readers.append(self)

        def __iter__(self):
            return self

        def __next__(self):
            row = next(self.reader)
            self.rows += 1
            return row

        @property
        def line_num(self):
            return self.reader.line_num

    monkeypatch.setattr(csv, "reader", CountingReader)
    table = load_runtime_table(runtimes, features)
    assert table.num_instances == 1200
    assert readers and max(reader.rows for reader in readers) == 1  # a header, no data row


def test_a_byte_that_is_not_utf8_is_named_by_file_offset_and_line(tmp_path, capsys):
    # 2,001 valid rows, then 0xe9 at byte 32,028: past the first 8 KB read
    # of a text-mode file, whose decoder counts from the start of its read.
    head = "instance_id,solver_0\n" + "".join(f"i{i},{i / 7:.5f}\n" for i in range(2000))
    head += "i2000," + "1." + "0" * (32_028 - len(head) - len("i2000,1.\n") - 1) + "\nx"
    assert len(head) == 32_028
    rt = tmp_path / "runtimes.csv"
    rt.write_bytes(head.encode() + b"\xe9,1\n")
    fi = tmp_path / "features.csv"
    fi.write_text("instance_id,f0\na,0.1\n")
    expected = (f"{rt}: not UTF-8 text: byte 0xe9 at offset 32028 (line 2003): "
                "invalid continuation byte")
    for read in (reference_keyed, lambda path: load_runtime_table(path, fi)):
        with pytest.raises(ValueError, match=re.escape(expected) + "$"):
            read(rt)
    assert cli_main(["algoselect", "--k", "1", "--T", "2", "--runtimes", str(rt),
                     "--instance-features", str(fi), "--out", str(tmp_path / "out.csv")]) == 1
    assert f"configuration error: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["1_0", "٣"])
def test_a_cell_only_python_float_reads_is_a_load_error(tmp_path, capsys, cell):
    rt = tmp_path / "runtimes.csv"
    rt.write_text(f"instance_id,solver_0,solver_1\na,0.1,0.2\nb,0.2,{cell}\n", encoding="utf-8")
    fi = tmp_path / "features.csv"
    fi.write_text("instance_id,f0\na,0.1\nb,0.5\n")
    sf = tmp_path / "solvers.csv"
    sf.write_text("alpha,rho,ps,wp\n1.0,0.5,0.2,0.1\n1.5,0.6,0.3,0.2\n")
    assert reference_keyed(rt)[1][1, 1] == float(cell)  # the reference read it
    expected = f"{rt}: line 3: solver_1 value {cell!r} is not a decimal number"
    with pytest.raises(ValueError, match=re.escape(expected) + "$"):
        load_runtime_table(rt, fi, sf)
    code = cli_main(["algoselect", "--k", "1", "--T", "2", "--runtimes", str(rt),
                     "--instance-features", str(fi), "--solver-features", str(sf),
                     "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert f"configuration error: {expected}" in capsys.readouterr().err


def test_bundled_solver_features_are_parsed_once_and_copied(monkeypatch):
    reads = []
    real = environments._read_table
    monkeypatch.setattr(environments, "_read_table",
                        lambda *args, **kwargs: reads.append(args) or real(*args, **kwargs))
    environments._bundled_solver_features.cache_clear()
    first = bundled_solver_features()
    first[:] = -1.0
    second = bundled_solver_features()
    assert len(reads) == 1
    assert second[0, 0] == 1.54114 and (second != -1.0).all()
    assert not np.shares_memory(first, second)


def test_the_bundled_file_reads_as_the_reference_reads_it():
    expected = reference_solver_features(
        Path(environments.__file__).parent / "data" / "saps_parametrizations.csv")
    assert bundled_solver_features().tobytes() == expected.tobytes()
