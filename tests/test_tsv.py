import decimal
import math
import os
import re
import stat
from pathlib import Path

import numpy as np
import orjson
import pytest
from _helpers import read_table_per_line, read_weight_rows

from orthomask import cli, netcore, tsv
from orthomask.dataio import (
    ExpressionDataset,
    read_expression_tsv,
    read_labels_tsv,
    write_expression_tsv,
    write_labels_tsv,
)
from orthomask.errors import ParseError
from orthomask.interpret import contributor_rows, export_weight_table, write_weight_rows
from orthomask.modelio import save_model
from orthomask.netcore import ACT_IDENTITY, FeedforwardNetwork, Layer, MaskedLinearLayer
from orthomask.orthograph import (
    BiadjacencyMatrix,
    ScoreTable,
    graph_to_tsv,
    read_gene_list,
    read_score_table,
    tsv_to_graph,
    write_gene_list,
    write_score_table,
)
from orthomask.training import TrainReport, write_report_tsv
from orthomask.tsv import id_column, parse_numbers, read_table, write_table


def _expression(path):
    ds = read_expression_tsv(path)
    return ds.gene_ids, ds.sample_ids, ds.samples.tolist()


def _labels(path):
    ids, values = read_labels_tsv(path, "regression")
    return ids, values.tolist()


def _graph(path):
    return tsv_to_graph(path, ["t1", "t2"], ["s1", "s2"])


# (reader returning a comparable value, header, two records, a record with
# the first record's key)
READERS = {
    "score_table": (
        lambda path: read_score_table(path).entries,
        "query\tsubject\tscore",
        ["q1\ts1\t0.5", "q1\ts2\t0.25"],
        "q1\ts1\t0.75",
    ),
    "gene_list": (read_gene_list, "gene_id", ["g1", "g2"], "g1"),
    "graph": (_graph, "target_gene\tsource_gene", ["t1\ts2", "t2\ts1"], "t1\ts2"),
    "expression": (
        _expression,
        "sample_id\tg1\tg2",
        ["a\t1.0\t-2.5", "b\t0.0\t3.0"],
        "a\t4.0\t5.0",
    ),
    "labels": (_labels, "sample_id\tlabel", ["a\t1.5", "b\t-2.0"], "a\t3.0"),
    "weight_table": (
        read_weight_rows,
        "target_gene\tsource_gene\tweight\ton_support",
        ["t1\ts1\t0.5\ttrue", "t1\ts2\t-1.0\tfalse"],
        "t1\ts1\t2.0\tfalse",
    ),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_shared_table_rules(tmp_path, name):
    read, header, (first, second), same_key = READERS[name]
    path = tmp_path / f"{name}.tsv"

    def parse_error_line(*lines):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read(path)
        assert str(err.value).startswith(f"{path}:{err.value.line}: ")
        return err.value.line

    path.write_text(f"{header}\n{first}\n{second}\n")
    plain = read(path)
    path.write_text(f"{header}\n\n{first}\n\n\n{second}\n\n")
    assert read(path) == plain

    # blank lines count towards line numbers
    assert parse_error_line(header, first, "", second + "\textra") == 4
    assert parse_error_line(header, first, "", same_key) == 4
    assert parse_error_line("wrong_" + header, first) == 1


# writers given one ID that holds ``bad``: in a record (gene list, graph)
# or in the header (expression gene IDs)
WRITERS = {
    "gene_list": lambda bad, path: write_gene_list(["g1", bad], path),
    "graph": lambda bad, path: graph_to_tsv(
        BiadjacencyMatrix(["t1", bad], ["s1"], [(0, 0), (1, 0)]), path
    ),
    "expression": lambda bad, path: write_expression_tsv(
        ExpressionDataset("sp", ["g1", bad], ["a"], [[1.0, 2.0]]), path
    ),
    "expression_sample": lambda bad, path: write_expression_tsv(
        ExpressionDataset("sp", ["g1"], ["a", bad], [[1.0], [2.0]]), path
    ),
}


@pytest.mark.parametrize("char", ["\t", "\n", "\r"])
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writers_reject_tab_and_line_breaks(tmp_path, name, char):
    # such a field would read back as other fields or lines, or not at all
    bad = f"x{char}y"
    path = tmp_path / f"{name}.tsv"
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        WRITERS[name](bad, path)
    # the lines before the refused one would read back as a shorter table
    assert not path.exists()


# a chunk of two ID columns, the second one row short
UNEQUAL = [(id_column(["x", "z"]), id_column(["y"]))]


def test_writer_rejects_wrong_width(tmp_path):
    path = tmp_path / "table.tsv"
    with pytest.raises(ValueError, match="columns of 2 and 1 rows"):
        write_table(path, ("a", "b"), UNEQUAL)
    assert not path.exists()
    # a 2-D float column spans one header column per array column
    with pytest.raises(ValueError, match="expected 3 fields, got 2"):
        write_table(path, ("a", "b", "c"), [(id_column(["x"]), np.zeros((1, 1)))])
    assert not path.exists()
    # a refused write through a symlink removes the regular file it names
    # and leaves the link in place
    link = tmp_path / "link.tsv"
    link.symlink_to(path)
    path.write_text("a\tb\nold\trecord\n")
    with pytest.raises(ValueError, match="columns of 2 and 1 rows"):
        write_table(link, ("a", "b"), UNEQUAL)
    assert link.is_symlink() and not path.exists()


def test_refused_write_leaves_streams_alone(tmp_path, capfd):
    # a link to a FIFO: the FIFO stays, and a chunk refused whole writes
    # no line to it
    fifo, link = tmp_path / "fifo", tmp_path / "link.tsv"
    os.mkfifo(fifo)
    link.symlink_to(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with pytest.raises(ValueError, match="columns of 2 and 1 rows"):
            write_table(link, ("a", "b"), UNEQUAL)
        assert stat.S_ISFIFO(os.stat(link).st_mode)
        assert os.read(reader, 100) == b""
    finally:
        os.close(reader)
    # /dev/stdout, here a regular file that capfd opened, is not removed
    stdout = os.fstat(1)
    assert stat.S_ISREG(stdout.st_mode)
    with pytest.raises(ValueError, match="columns of 2 and 1 rows"):
        write_table("/dev/stdout", ("a", "b"), UNEQUAL)
    assert os.fstat(1).st_nlink == stdout.st_nlink
    assert capfd.readouterr().out == ""


def test_refused_write_removes_its_file_with_the_standard_streams_closed(tmp_path, monkeypatch):
    # with descriptors 1 and 2 closed, no written file can be a standard
    # stream, so a refused write still removes its partial regular file
    fstat = os.fstat

    def closed_streams(fd):
        if fd in (1, 2):
            raise OSError(9, "Bad file descriptor")
        return fstat(fd)

    monkeypatch.setattr(os, "fstat", closed_streams)
    path = tmp_path / "partial.tsv"
    with pytest.raises(ValueError, match="columns of 2 and 1 rows"):
        write_table(path, ("a", "b"), UNEQUAL)
    assert not path.exists()


def test_writer_rejects_empty_line(tmp_path):
    # a one-column record of an empty field would be written as a blank
    # line, which the reader skips: the empty gene ID would vanish
    path = tmp_path / "genes.tsv"
    with pytest.raises(ValueError, match="blank line"):
        write_gene_list(["", "a"], path)
    # an empty field beside others is still a line with a tab
    write_table(path, ("a", "b"), [(id_column([""]), id_column([""]))])
    assert path.read_text() == "a\tb\n\t\n"


# a table's header, the bad entry that its last column holds, the
# refusal's message, and the rows written before it given the bad row: a
# bad name is refused with its names tuple, before any line (None); a
# chunk of columns of unequal length (bad None) when the chunk comes; a
# non-finite float with its block of two rows
BAD_ENTRIES = {
    "short": (("a", "b"), None, "columns of 6 and 5 rows", lambda at: 4),
    "tab": (("a", "b"), "x\ty", "field 'x\\ty' contains a tab or line break", None),
    "lf": (("a", "b"), "y\nz", "field 'y\\nz' contains a tab or line break", None),
    "cr": (("a", "b"), "x\ry", "field 'x\\ry' contains a tab or line break", None),
    "empty": (("a",), "", "an empty field alone on a line would be read as a blank line", None),
    "nan": (("a", "b"), math.nan, "cannot format non-finite value nan", lambda at: at - at % 2),
}


def _two_chunks(header, bad, at):
    """A table of 10 rows as two chunks, rows 0-3 and 4-9, whose last
    column holds ``bad`` at row ``at`` of the second: one names tuple, as
    both chunks' IDs, names it; a float column holds it; or, for None, the
    second chunk's last column lacks that row. Also the lines of the table
    with no bad entry."""
    keys = id_column([f"r{k}" for k in range(10)])
    if isinstance(bad, float):
        last = np.arange(10.0)
        lines = [f"r{k}\t{float(k)!r}" for k in range(10)]
    else:
        last = id_column([f"v{k}" for k in range(10)])
        lines = [f"r{k}\tv{k}" if len(header) == 2 else f"v{k}" for k in range(10)]

    def cut(column, rows):
        if isinstance(column, tsv.Factorized):
            return tsv.Factorized(column.names, column.codes[rows])
        return column[rows]

    columns = (keys, last)[-len(header) :]
    good = [tuple(cut(c, rows) for c in columns) for rows in (slice(0, 4), slice(4, 10))]
    if bad is None:
        last = tsv.Factorized(last.names, np.delete(last.codes, at))
    elif isinstance(bad, float):
        last = last.copy()
        last[at] = bad
    else:
        last = tsv.Factorized(last.names[:at] + (bad,) + last.names[at + 1 :], last.codes)
    columns = (keys, last)[-len(header) :]
    chunks = [tuple(cut(c, rows) for c in columns) for rows in (slice(0, 4), slice(4, None))]
    text = "".join(line + "\n" for line in ["\t".join(header), *lines])
    return good, chunks, text


@pytest.mark.parametrize("at", [5, 6])
@pytest.mark.parametrize("case", sorted(BAD_ENTRIES))
def test_refusal_past_the_first_block(tmp_path, monkeypatch, capfd, case, at):
    """A bad entry in a later chunk, written two floats or rows at a time,
    gives the message it gives alone. A bad name writes no line: a FIFO
    reads nothing and /dev/stdout gets nothing. A regular file is removed,
    through a symlink that stays."""
    header, bad, message, rows_before = BAD_ENTRIES[case]
    monkeypatch.setattr(tsv, "FLOAT_CHUNK", 2)
    good, chunks, text = _two_chunks(header, bad, at)
    written = "" if rows_before is None else "".join(text.splitlines(True)[: 1 + rows_before(at)])
    path, link = tmp_path / "table.tsv", tmp_path / "link.tsv"
    link.symlink_to(path)
    write_table(link, header, good)
    assert path.read_text() == text
    with pytest.raises(ValueError, match=re.escape(message)):
        write_table(link, header, chunks)
    assert link.is_symlink() and not path.exists()

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            write_table(fifo, header, iter(chunks))
        assert os.read(reader, 1000).decode() == written
    finally:
        os.close(reader)

    capfd.readouterr()
    with pytest.raises(ValueError, match=re.escape(message)):
        write_table("/dev/stdout", header, chunks)
    assert capfd.readouterr().out == written


# IDs a table may hold: non-ASCII, and characters that str.splitlines
# would take for line breaks but a table does not
CELLS = ["a", "b", "g_1", "\u00e4\u00df", "\u6f22", "x\x0by", "x\x0cy", "x\x1cy", "x\x85y", " ", "\u2028"]
LINE_ENDS = ["\n", "\r\n", "\r"]


def random_table_text(rng):
    """A table file's text: a header, records of the header's width or
    not, repeated keys, and blank lines anywhere, with LF, CRLF or lone-CR
    line ends (mixed at times) and sometimes no line end after the last
    line; at times empty or only a header."""
    shape = rng.uniform()
    if shape < 0.03:
        return ""
    width = int(rng.integers(1, 5))
    names = [f"c{k}" for k in range(width)]
    if rng.uniform() < 0.05:
        names[-1] = names[0]
    lines = ["\t".join(names)]
    if shape >= 0.06:  # else header only
        for _ in range(int(rng.integers(0, 10))):
            if rng.uniform() < 0.2:
                lines.append("")
                continue
            n = width if rng.uniform() < 0.9 else max(1, width + int(rng.choice([-1, 1])))
            lines.append("\t".join(str(rng.choice(CELLS)) for _ in range(n)))
    if rng.uniform() < 0.05:
        lines.insert(0, "")  # a blank first line is the header
    ends = [str(rng.choice(LINE_ENDS))] * len(lines)
    if rng.uniform() < 0.2:
        ends = [str(rng.choice(LINE_ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if rng.uniform() < 0.3:
        text = text[: -len(ends[-1])]
    return text


def test_bulk_reader_matches_line_by_line_oracle(tmp_path):
    rng = np.random.default_rng(41)
    path = tmp_path / "table.tsv"
    outcomes = set()
    for trial in range(600):
        path.write_bytes(random_table_text(rng).encode("utf-8"))
        width = len(path.read_text(encoding="utf-8").split("\n")[0].split("\t"))
        key_fields = int(rng.integers(1, min(width, 2) + 1))
        header = None
        if rng.uniform() < 0.5:
            header = [f"c{k}" for k in range(width)] if rng.uniform() < 0.9 else ["c0", "other"]
        try:
            names, records = read_table_per_line(path, header, key_fields)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                read_table(path, header, key_fields)
            assert (str(got.value), got.value.line) == (str(err), err.line)
            outcomes.add(str(err).split(": ", 1)[1].split(" ")[0])
            continue
        table = read_table(path, header, key_fields)
        assert table.names == names
        assert [table.line(k) for k in range(len(table))] == [lineno for lineno, _ in records]
        for k in range(len(names)):
            assert table.column(k) == [fields[k] for _, fields in records]
        # each key column factorized once, in order of first appearance
        assert len(table.keys) == key_fields
        for k, key in enumerate(table.keys):
            column = [fields[k] for _, fields in records]
            assert key.names == tuple(dict.fromkeys(column))
            assert key.codes.tolist() == [key.names.index(field) for field in column]
        outcomes.add("ok")
    # good files and each rule's failure were drawn
    assert outcomes == {"ok", "expected", "duplicate"}


NUMERIC_READERS = {
    "score": (read_score_table, "query\tsubject\tscore", "q_{}\ts_1\t{}",
              "non-numeric score {!r}"),
    "expression": (read_expression_tsv, "sample_id\tg_1\tg_2", "sample_{}\t1.5\t{}",
                   "non-numeric expression value"),
    "regression_label": (lambda path: read_labels_tsv(path, "regression"), "sample_id\tlabel",
                         "sample_{}\t{}", "non-numeric label {!r}"),
    "class_label": (lambda path: read_labels_tsv(path, "classification"), "sample_id\tlabel",
                    "sample_{}\t{}", "non-integer class label {!r}"),
}


@pytest.mark.parametrize("text", ["1_0", " 1", "1 ", "\x0c1", "1\x85", "\u30001"])
@pytest.mark.parametrize("name", sorted(NUMERIC_READERS))
def test_numeric_fields_refuse_underscores_and_blanks(tmp_path, name, text):
    # float() and int() would read each of these; IDs may hold "_"
    read, header, record, message = NUMERIC_READERS[name]
    path = tmp_path / f"{name}.tsv"
    first = record.replace("{}", "0", 1).replace("{}", "1")
    bad = record.replace("{}", "1", 1).replace("{}", text)
    path.write_text(f"{header}\n{first}\n\n{bad}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read(path)
    expected = message.format(text) if "{" in message else message
    assert (str(err.value), err.value.line) == (f"{path}:4: {expected}", 4)
    path.write_text(f"{header}\n{first}\n", encoding="utf-8")
    read(path)


NUMBER_TEXTS = ["1", "-2.5", "1e-3", "+4", "inf", "nan", "١", "0x1", "1.5.", "", "1_0", " 1",
                "1 ", "\x0b1", "1\xa0", "12345678901234567890"]


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_parse_numbers_matches_plain_scan(dtype):
    """The parsed prefix and the first bad field match a field-by-field
    scan with float() or int(), refusing "_" and surrounding whitespace."""
    convert = float if dtype is np.float64 else int

    def plain(texts):
        values = []
        for k, text in enumerate(texts):
            try:
                if "_" in text or text != text.strip():
                    raise ValueError(text)
                values.append(convert(text))
                np.array(values[-1:], dtype=dtype)  # within int64
            except (ValueError, OverflowError):
                return values[:k], k
        return values, None

    rng = np.random.default_rng(43)
    stops = set()
    for _ in range(400):
        good = rng.uniform() < 0.3
        pool = NUMBER_TEXTS[:4] if good else NUMBER_TEXTS
        texts = [str(rng.choice(pool)) for _ in range(int(rng.integers(0, 6)))]
        values, stop = parse_numbers(texts, dtype)
        expected, expected_stop = plain(texts)
        assert values.dtype == dtype and stop == expected_stop
        assert np.array_equal(values, np.array(expected, dtype=dtype), equal_nan=True)
        stops.add(stop is None)
    assert stops == {True, False}


def test_non_utf8_table_names_its_line(tmp_path):
    # CRLF and lone CR end lines, as the reader reads them
    path = tmp_path / "genes.tsv"
    path.write_bytes(b"gene_id\r\ng1\rg2\n\ng\xff3\n")
    with pytest.raises(ParseError, match=r"genes\.tsv:5: not UTF-8 text: byte 0xff"):
        read_gene_list(path)
    path.write_bytes(b"\xffgene_id\ng1\n")
    with pytest.raises(ParseError, match=r"genes\.tsv:1: "):
        read_gene_list(path)


def test_read_text_opens_a_file_once(tmp_path, monkeypatch):
    # the bytes read once are decoded once, and place a bad byte too
    opened = []

    def counted(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(tsv, "open", counted, raising=False)
    path = tmp_path / "genes.tsv"
    path.write_bytes(b"gene_id\r\ng1\rg2\n")
    assert tsv.read_text(path) == "gene_id\ng1\ng2\n"
    path.write_bytes(b"gene_id\r\ng1\rg\xff2\n")
    with pytest.raises(ParseError, match=r"genes\.tsv:3: not UTF-8 text: byte 0xff"):
        tsv.read_text(path)
    assert opened == [path, path]


def _decimal_fields(rng):
    """Seeded decimals that a reader rounding wrongly would misread: 17-25
    significant digits, subnormals, exact and near halfway points between
    neighbouring doubles, and integers of 20-40 digits."""
    context = decimal.Context(prec=1200)
    fields = []
    for _ in range(300):
        digits = "".join(map(str, rng.integers(0, 10, int(rng.integers(17, 26)))))
        sign = str(rng.choice(["", "-"]))
        exponent = int(rng.integers(-345, 310))
        fields.append(f"{sign}{digits[0]}.{digits[1:]}e{exponent}")
        # finite doubles, one in eight subnormal
        bits = int(rng.integers(0, 2**52)) if rng.uniform() < 0.125 else int(rng.integers(0, 0x7FEFFFFFFFFFFFFF))
        x = np.array([bits], dtype=np.uint64).view(np.float64)[0]
        fields.append(repr(float(x)))
        middle = context.divide(
            context.add(decimal.Decimal(float(x)), decimal.Decimal(float(np.nextafter(x, np.inf)))), 2
        )
        fields.append(f"{sign}{middle:e}")
        fields.append(f"{sign}{middle:.{int(rng.integers(16, 25))}e}")
        width = int(rng.integers(20, 41))
        fields.append(sign + str(int(rng.integers(1, 10))) + "".join(map(str, rng.integers(0, 10, width - 1))))
    return fields


# fields float() reads but JSON does not, or reads otherwise, and fields
# neither reads as one number
ODD_FIELDS = ["-0", "-0.0", "-0e0", "0", "-1e-400", "1e400", "-1e400", "1E5", ".5", "5.", "+1",
              "007", "-00", "1e5", "inf", "-nan", "1_0", " 1", "1 ", "1,2", "true", "[1]", "",
              "1e", "--1", "١"]


def test_parse_floats_matches_parse_numbers(monkeypatch):
    """The orjson reader gives parse_numbers' bits and first bad field, and
    leaves to it only the lines JSON cannot read as float() does."""
    rng = np.random.default_rng(44)
    decimals = _decimal_fields(rng)
    fallbacks = []
    monkeypatch.setattr(tsv, "parse_numbers", lambda texts: fallbacks.append(texts) or parse_numbers(texts))
    stops = set()
    for k in range(2000):
        pool = decimals if k % 2 else decimals + ODD_FIELDS
        fields = [pool[i] for i in rng.integers(0, len(pool), int(rng.integers(1, 9)))]
        values, stop = tsv.parse_floats("\t".join(fields))
        expected, expected_stop = parse_numbers(fields)
        assert (values.tobytes(), stop) == (expected.tobytes(), expected_stop), fields
        stops.add(stop)
        if pool is decimals and all(map(math.isfinite, map(float, fields))):
            assert not fallbacks, fields
        fallbacks.clear()
    assert {None, 0} < stops
    for field in ODD_FIELDS:
        values, stop = tsv.parse_floats(field)
        expected, expected_stop = parse_numbers([field])
        assert (values.tobytes(), stop) == (expected.tobytes(), expected_stop), field


def _outcome(read, path):
    try:
        return read(path)
    except ParseError as exc:
        return str(exc)


NUMERIC_FILES = [
    # (reader returning the values' bits, header, record for a field)
    (lambda p: read_score_table(p).scores.tobytes(), "query\tsubject\tscore", "q{k}\ts\t{field}"),
    (lambda p: read_labels_tsv(p, "regression")[1].tobytes(), "sample_id\tlabel", "s{k}\t{field}"),
    (lambda p: read_expression_tsv(p).samples.tobytes(), "sample_id\tg1\tg2", "s{k}\t1.5\t{field}"),
]


@pytest.mark.parametrize("read, header, record", NUMERIC_FILES)
def test_numeric_files_read_as_parse_numbers_reads_them(tmp_path, monkeypatch, read, header, record):
    """A score, label or expression file gives the same bits with
    orjson as with parse_numbers alone, or the same ``path:line:`` message."""
    rng = np.random.default_rng(45)
    fields = _decimal_fields(rng)[:200] + ODD_FIELDS
    path = tmp_path / "numbers.tsv"
    texts = []
    for field in fields:
        # the field on line 4, after a blank line, between good records
        lines = [header, record.format(k=0, field="0.25"), "", record.format(k=1, field=field),
                 record.format(k=2, field="2.5e-3")]
        texts.append("\n".join(lines) + "\n")

    def outcomes():
        found = []
        for text in texts:
            path.write_text(text, encoding="utf-8")
            found.append(_outcome(read, path))
        return found

    loaded = outcomes()
    with monkeypatch.context() as m:
        m.setattr(orjson, "loads", _refuse_json)
        expected = outcomes()
    assert loaded == expected
    messages = [o for o in loaded if type(o) is str]
    assert messages and all(m.startswith(f"{path}:4: ") for m in messages)
    assert len(messages) < len(loaded)


def _refuse_json(text):
    raise orjson.JSONDecodeError("refused", text, 0)


def _float_cases(rng):
    """Arrays of every kind of finite double, and of the values where
    repr's spelling switches between plain and exponent form."""
    bits = rng.integers(0, 2**64, 40000, dtype=np.uint64).view(np.float64)
    edges = []
    for x in (1e-4, -1e-4, 1e16, -1e16):
        down = up = x
        for _ in range(4):
            down, up = np.nextafter(down, 0.0), np.nextafter(up, np.copysign(np.inf, x))
            edges += [down, up]
        edges.append(x)
    sign = rng.choice([-1.0, 1.0], 5000)
    subnormal = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    big = np.finfo(np.float64).max
    return [
        bits[np.isfinite(bits)],
        rng.normal(size=5000),
        sign * 10.0 ** rng.uniform(-9, -3, 5000),
        np.array(edges),
        np.array([0.0, -0.0, 5e-324, -5e-324, big, -big, np.finfo(np.float64).tiny]),
        np.concatenate([subnormal, -subnormal]),
        np.array([2.0**53 + k for k in range(-6, 7)] + [-(2.0**53) - k for k in range(-6, 7)]),
        np.array([1e15, 123456789.0, 9999999999999998.0, 0.5, 100.0]),
        rng.normal(size=(300, 3))[:, 0],
        np.zeros(0),
        [0.25, -3.0, 1e-7, 1e22, 7],
    ]


def test_float_column_matches_repr(tmp_path, monkeypatch):
    """orjson's spelling, with repr where it differs, is repr's, also in a
    float column written seven values at a time."""
    monkeypatch.setattr(tsv, "FLOAT_CHUNK", 7)
    path = tmp_path / "column.tsv"
    for values in _float_cases(np.random.default_rng(46)):
        expected = [repr(float(x)) for x in np.asarray(values).tolist()]
        texts = tsv._float_texts(np.ascontiguousarray(values, np.float64))
        wrong = [(t, e) for t, e in zip(texts, expected) if t != e]
        assert texts == expected, f"orjson {orjson.__version__}: {wrong[:5]}"
        write_table(path, ("x",), [(values,)])
        assert path.read_text() == "".join(f"{text}\n" for text in ["x", *expected])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=re.escape(f"cannot format non-finite value {bad}")):
            write_table(path, ("x",), [([1.0, bad, math.nan],)])
        with pytest.raises(ValueError, match=re.escape(f"cannot format non-finite value {bad}")):
            write_table(path, ("x",), [(np.array([1e-9, bad]),)])
        assert not path.exists()


def _float_matrices(rng):
    """Matrices of random finite doubles of several shapes, and degenerate ones."""
    bits = rng.integers(0, 2**64, 30000, dtype=np.uint64).view(np.float64)
    finite = bits[np.isfinite(bits)]
    subnormal = rng.integers(1, 2**52, 20, dtype=np.uint64).view(np.float64)
    big = np.finfo(np.float64).max
    return [
        finite[:24000].reshape(-1, 60),
        finite[:999].reshape(-1, 3),
        finite[:40].reshape(-1, 1),
        finite[:7].reshape(1, -1),
        np.zeros((0, 5)),
        np.zeros((3, 0)),
        np.full((4, 6), -0.0),
        np.array([[1e-4, -1e-4, 1e16], [-1e16, np.nextafter(1e-4, 0.0), np.nextafter(1e16, 0.0)]]),
        np.array([subnormal, -subnormal, [big, -big] * 10]),
        np.array([[0.375, 1.0, 2.5], [1e-300, 0.1, -7.0]]),
    ]


def _exponent_cell(dumps):
    """orjson's dumps, but spelling one cell with an exponent."""
    return lambda obj, option=None: dumps(obj, option=option).replace(b".", b"e", 1)


def _no_point_cell(dumps):
    """orjson's dumps, but spelling one cell without a point."""
    return lambda obj, option=None: dumps(obj, option=option).replace(b".0", b"", 1)


@pytest.mark.parametrize("dumps", [None, _exponent_cell, _no_point_cell])
@pytest.mark.parametrize("chunk", [1, 3, tsv.FLOAT_CHUNK])
def test_float_rows_match_repr(tmp_path, monkeypatch, chunk, dumps):
    """Each row the formatter and the expression writer spell is its
    values' repr joined by tabs, block by block and when orjson spells a
    cell otherwise."""
    monkeypatch.setattr(tsv, "FLOAT_CHUNK", chunk)
    if dumps is not None:
        monkeypatch.setattr(orjson, "dumps", dumps(orjson.dumps))
    path = tmp_path / "expr.tsv"
    for matrix in _float_matrices(np.random.default_rng(48)):
        expected = ["\t".join(map(repr, row)) for row in matrix.tolist()]
        assert tsv._float_texts(np.ascontiguousarray(matrix)) == expected
        genes = [f"g{k}" for k in range(matrix.shape[1])]
        samples = [f"s{k}" for k in range(matrix.shape[0])]
        write_expression_tsv(ExpressionDataset("", genes, samples, matrix), path)
        lines = ["\t".join(["sample_id", *genes])]
        lines += [f"{sid}\t{row}" if genes else sid for sid, row in zip(samples, expected)]
        assert path.read_text() == "".join(line + "\n" for line in lines)


def _repr_texts(values):
    """The reference formatter: repr of each value, one at a time."""
    texts = []
    for x in np.asarray(values, np.float64).tolist():
        if not math.isfinite(x):
            raise ValueError(f"cannot format non-finite value {x}")
        texts.append(repr(x))
    return texts


def _write_every_float_file(out):
    """Call each float writer, and each CLI command that writes floats,
    into ``out``."""
    rng = np.random.default_rng(47)
    odd = np.array([1e-5, -0.0, 1e16, 5e-324, 123.25, -2.0**53 - 2, 0.1])
    samples = np.vstack([odd, rng.normal(size=(5, 7)) * 10.0 ** rng.uniform(-6, 17, (5, 7))])
    genes = [f"g{k}" for k in range(7)]
    write_expression_tsv(ExpressionDataset("sp", genes, list("abcdef"), samples), out / "expr.tsv")
    scores = [(f"q{k}", f"s{k % 3}", float(abs(x))) for k, x in enumerate(samples.ravel())]
    write_score_table(ScoreTable("q", "s", scores), out / "scores.tsv")
    write_labels_tsv(list("abcdefg"), odd, out / "labels.tsv")
    write_report_tsv(TrainReport(odd.tolist(), 1e-300), out / "report.tsv")

    bundle, model = out / "bundle", out / "model.json"
    commands = [
        ["synth", "--n-s", "9", "--n-t", "6", "--density", "0.3", "--samples", "20",
         "--noise", "0.1", "--hidden", "3", "--seed", "4", "--out-dir", bundle],
        ["train-conversion", "--model", bundle / "base_model.json", "--graph", bundle / "graph.tsv",
         "--target-genes", bundle / "target_genes.tsv", "--source-genes", bundle / "source_genes.tsv",
         "--expr", bundle / "train_expr.tsv", "--labels", bundle / "train_labels.tsv",
         "--mode", "soft", "--lr", "0.01", "--steps", "12", "--seed", "2",
         "--out", model, "--report", out / "conversion.tsv"],
        ["predict", "--model", model, "--expr", bundle / "test_expr.tsv", "--out", out / "pred.tsv"],
        ["eval", "--model", model, "--expr", bundle / "test_expr.tsv",
         "--labels", bundle / "test_labels.tsv"],
        ["inspect-weights", "--model", model, "--out", out / "weights.tsv"],
        ["inspect-weights", "--model", model, "--target-gene", "T0000", "--top", "4",
         "--out", out / "top.tsv"],
    ]
    for argv in commands:
        assert cli.main(list(map(str, argv))) == 0, argv


# a float's repr: digits with a "." or an exponent
FLOAT_CELL = re.compile(r"-?\d+(\.\d+(e[-+]\d+)?|e[-+]\d+)")


def _float_cells(files):
    """The float cells of the TSV files below their headers."""
    return [
        cell
        for name, data in files.items()
        if name.suffix == ".tsv"
        for line in data.decode().split("\n")[1:]
        for cell in line.split("\t")
        if FLOAT_CELL.fullmatch(cell)
    ]


def test_writers_match_repr_reference(tmp_path, monkeypatch, capsys):
    """Every float writer, and eval's stdout, gives the bytes of a
    repr-per-value formatter when only tsv's formatter is replaced, with
    rows and columns formatted a few values at a time; and that formatter
    sees every float cell written, so no writer formats its own."""

    def written(out):
        out.mkdir()
        _write_every_float_file(out)
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        return files, capsys.readouterr().out.replace(str(out), "OUT")

    with monkeypatch.context() as m:
        m.setattr(tsv, "FLOAT_CHUNK", 4)
        found = written(tmp_path / "found")
    formatted = []

    def counted(values):
        # a 1-D array is one column: one text per value
        rows = [_repr_texts(row) for row in (values[:, None] if values.ndim == 1 else values)]
        formatted.extend(cell for row in rows for cell in row)
        return list(map("\t".join, rows))

    with monkeypatch.context() as m:
        m.setattr(tsv, "_float_texts", counted)
        expected = written(tmp_path / "expected")
    assert found == expected
    assert len(found[0]) > 10 and "e-05" in found[0][Path("expr.tsv")].decode()
    cells = _float_cells(expected[0])
    assert len(cells) > 300 and sorted(formatted) == sorted(cells)


# each writer's file for the small fixed input of test_every_writer_keeps_its_bytes
PINNED = {
    "scores.tsv": "query\tsubject\tscore\nq2\ts1\t0.5\nq1\ts1\t1e-05\nq2\ts2\t0.0\nq1\ts2\t1e+16\n",
    "genes.tsv": "gene_id\ng2\ng1\n\u00e4\u00df\n",
    "graph.tsv": "target_gene\tsource_gene\nt2\ts1\nt1\ts2\nt1\ts3\nt3\ts1\n",
    "expr0.tsv": "sample_id\na\nb\n",
    "expr3.tsv": "sample_id\tg1\tg2\tg3\na\t0.1\t-0.0\t1e-05\nb\t123.25\t5e-324\t-1e+16\n",
    "labels_float.tsv": "sample_id\tlabel\na\t0.5\nb\t-2.0\nc\t1e-07\n",
    "labels_int.tsv": "sample_id\tlabel\na\t2\nb\t0\nc\t11\nd\t2\n",
    "labels_int_empty.tsv": "sample_id\tlabel\n",
    "labels_int_negative.tsv": "sample_id\tlabel\na\t-3\nb\t2\nc\t-3\nd\t0\ne\t-12\n",
    "report.tsv": "step\tloss\n1\t0.75\n2\t0.1\n3\t1e-05\n# final_eval\t0.0625\n",
    "pred_regression.tsv": "sample_id\tprediction\na\t0.25\nb\t-1e-05\n",
    "pred_class.tsv": "sample_id\tprediction\na\t11\nb\t0\n",
    "weights_hard.tsv": (
        "target_gene\tsource_gene\tweight\ton_support\n"
        "t1\ts2\t-1.5\ttrue\nt1\ts3\t1e-06\ttrue\nt2\ts1\t0.5\ttrue\nt3\ts1\t2.0\ttrue\n"
    ),
    "weights_soft.tsv": (
        "target_gene\tsource_gene\tweight\ton_support\n"
        "t1\ts1\t0.5\tfalse\nt1\ts2\t1e+17\ttrue\nt1\ts3\t-0.125\ttrue\n"
        "t2\ts1\t-0.0\ttrue\nt2\ts2\t0.25\tfalse\nt2\ts3\t3.0\tfalse\n"
        "t3\ts1\t7.0\ttrue\nt3\ts2\t0.0\tfalse\nt3\ts3\t-2.5\tfalse\n"
    ),
    "top_hard.tsv": (
        "target_gene\tsource_gene\tweight\ton_support\nt1\ts2\t-1.5\ttrue\nt1\ts3\t1e-06\ttrue\n"
    ),
    "top_soft.tsv": (
        "target_gene\tsource_gene\tweight\ton_support\nt1\ts2\t1e+17\ttrue\nt1\ts1\t0.5\tfalse\n"
    ),
}


def test_every_writer_keeps_its_bytes(tmp_path, monkeypatch):
    """Each table writer, and predict's, writes the pinned text for a
    small fixed input. No value goes through a matrix product, so the
    text does not depend on the BLAS numpy links."""
    out = tmp_path
    scores = [("q2", "s1", 0.5), ("q1", "s1", 1e-05), ("q2", "s2", 0.0), ("q1", "s2", 1e16)]
    write_score_table(ScoreTable("q", "s", scores), out / "scores.tsv")
    write_gene_list(["g2", "g1", "\u00e4\u00df"], out / "genes.tsv")
    mask = BiadjacencyMatrix(["t2", "t1", "t3"], ["s2", "s1", "s3"], [(0, 1), (1, 0), (1, 2), (2, 1)])
    graph_to_tsv(mask, out / "graph.tsv")
    write_expression_tsv(ExpressionDataset("sp", [], ["a", "b"], np.zeros((2, 0))), out / "expr0.tsv")
    samples = np.array([[0.1, -0.0, 1e-05], [123.25, 5e-324, -1e16]])
    write_expression_tsv(ExpressionDataset("sp", ["g1", "g2", "g3"], ["a", "b"], samples), out / "expr3.tsv")
    write_labels_tsv(["a", "b", "c"], np.array([0.5, -2.0, 1e-07]), out / "labels_float.tsv")
    write_labels_tsv(["a", "b", "c", "d"], np.array([2, 0, 11, 2]), out / "labels_int.tsv")
    write_labels_tsv([], np.zeros(0, np.int64), out / "labels_int_empty.tsv")
    write_labels_tsv(list("abcde"), np.array([[-3], [2], [-3], [0], [-12]]), out / "labels_int_negative.tsv")
    write_report_tsv(TrainReport([0.75, 0.1, 1e-05], 0.0625), out / "report.tsv")

    # predict's outputs for fixed network outputs, put in place of the
    # forward pass, which predict takes from netcore when it runs
    outputs = {1: np.array([[0.25], [-1e-05]]), 12: np.eye(12)[[11, 0]] * 0.5}
    monkeypatch.setattr(netcore, "model_forward", lambda net, conversion, xs: outputs[net.output_dim])
    for head, n_out in (("regression", 1), ("class", 12)):
        model = out / f"{head}.json"
        save_model(FeedforwardNetwork([Layer(np.zeros((n_out, 3)), np.zeros(n_out), ACT_IDENTITY)]), None, model)
        argv = ["predict", "--model", model, "--expr", out / "expr3.tsv", "--out", out / f"pred_{head}.tsv"]
        assert cli.main(list(map(str, argv))) == 0

    hard = MaskedLinearLayer(mask, "hard", [0.5, -1.5, 1e-06, 2.0])
    soft = MaskedLinearLayer(mask, "soft", [[0.25, -0.0, 3.0], [1e17, 0.5, -0.125], [0.0, 7.0, -2.5]])
    export_weight_table(hard, out / "weights_hard.tsv")
    export_weight_table(soft, out / "weights_soft.tsv")
    write_weight_rows(contributor_rows(hard, "t1", 10), out / "top_hard.tsv")
    write_weight_rows(contributor_rows(soft, "t1", 2), out / "top_soft.tsv")
    assert {name: (out / name).read_bytes().decode() for name in PINNED} == PINNED
