"""The tab-separated table format of every orthomask table file.

A table is UTF-8 text with LF line ends (CRLF and lone CR read as LF). The
first line is the header: a tab-separated list of distinct column names.
Each later non-blank line is a record with as many tab-separated fields as
the header has names; blank lines are skipped but still counted. The first
``key_fields`` fields of a record are its key, and no key appears twice. A
file that breaks a rule raises :class:`ParseError` with the path and the
1-based line number, so its message starts ``path:line:``; a byte that is
not UTF-8 is named by its line too. What a cell may hold (a number, a gene
ID, a flag) is checked by the reader of each format.
No name or field holds a tab, LF or CR, and no line is empty (a one-column
table has no empty field); the writer refuses either.

A file is read whole, and :func:`read_table` checks every line at once:
the file's tabs and LFs alone, taken out in C, must repeat the header's
pattern once per line. Blank lines, which break that pattern in a table
of two or more columns, are dropped first; then the first byte that
differs names the first record of the wrong width. A column table's
fields come from one split of the text, and each key column is
factorized once, against the gene list it names when the reader has
one, to find the first repeated key.

A numeric field (a score, expression value, label or weight) is a decimal
as Python's ``float()`` reads it (``int()`` for a class label): ``1``,
``-2.5``, ``1e-3``, ``inf``, ``nan``. Unlike ``float()``, the reader refuses
a ``_`` digit separator and leading or trailing whitespace, so ``1_0`` and
`` 0.5`` are not numbers. :func:`parse_numbers` checks field by field and
is the reference. A float64 row or column is read first by
:func:`parse_floats`, as one JSON array with orjson, when its fields are
JSON numbers; any other row, and every refusal, goes to
:func:`parse_numbers`. Both readers round correctly, so both give the same
bits and the same first bad field.

Every float a writer writes is spelled by one formatter,
:func:`_float_texts`: each value as its ``repr``, the shortest decimal that
reads back to the same double, so a file's bytes depend only on its
values. orjson formats about ``FLOAT_CHUNK`` values per call, of a column
(:func:`float_column`) or of a block of rows (:func:`write_float_rows`),
and ``repr`` spells each value orjson is not trusted with. Every table is
written by :func:`write_blocks`, one write per block of lines;
:func:`write_table` joins and checks ``RECORD_BLOCK`` records per block.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np
import orjson

from .errors import ParseError

# the characters of a JSON number, and the tab that ends a field
_JSON_NUMBER_BYTES = b"0123456789.eE+-\t"
# every byte but the tab and the LF, which end fields and records
_NON_SEPARATORS = bytes(sorted(set(range(256)) - {9, 10}))
# characters of a table's text scanned for separators at a time
_SCAN_CHUNK = 1 << 20
# values per _float_texts call when float_column formats a row or column,
# or write_float_rows a block of rows: a chunk's text adds little to a
# writer's peak memory
FLOAT_CHUNK = 1 << 10
# records per join, check and write of write_table
RECORD_BLOCK = 1 << 8


class Factorized(NamedTuple):
    """A column as a tuple of distinct strings and each entry's int64
    index into them. The strings are a seed vocabulary, which need not all
    occur, then the column's other strings in order of first appearance."""

    names: tuple[str, ...]
    codes: np.ndarray

    def decoded(self) -> list[str]:
        """Each entry's string, in order."""
        return np.fromiter(self.names, object, len(self.names))[self.codes].tolist()


def factorize(values, vocabulary=()) -> Factorized:
    """``values`` (a list of strings) coded against ``vocabulary``, a
    sequence of distinct strings: a known string's code is its position
    there, found with one dict lookup, and an unseen string is coded after
    it, in order of first appearance. Without a vocabulary, the codes
    follow first appearance."""
    names = tuple(vocabulary) or tuple(dict.fromkeys(values))
    index = dict(zip(names, range(len(names))))
    codes = np.fromiter(map(index.get, values, repeat(-1)), np.int64, len(values))
    unseen = np.flatnonzero(codes < 0)
    if unseen.size:
        rest = factorize(list(map(values.__getitem__, unseen.tolist())))
        codes[unseen] = rest.codes + len(names)
        names += rest.names
    return Factorized(names, codes)


class Table:
    """A table file's header names and records, as :func:`read_table` read them."""

    def __init__(self, path, names: list[str], text: str, size: int, linenos, vocabularies=()):
        self.path = path
        self.names = names
        # the header line, then the non-blank lines after it, in file order
        self._text = text
        self._size = size
        self._linenos = linenos  # None: no blank line follows the header
        self._vocabularies = vocabularies
        self._fields: list[str] | None = None
        self._factors: dict[int, Factorized] = {}

    def __len__(self) -> int:
        return self._size

    def line(self, k: int) -> int:
        """The 1-based line number of record ``k``."""
        return k + 2 if self._linenos is None else self._linenos[k]

    @property
    def records(self):
        """Each record's line, one at a time: no list of lines is held."""
        text = self._text
        end = text.find("\n")
        for _ in range(self._size):
            start = end + 1
            end = text.find("\n", start)
            yield text[start : len(text) if end < 0 else end]

    def column(self, k: int) -> list[str]:
        """Field ``k`` of every record."""
        if self._fields is None:
            # every field of the file, the header's names first: one split
            self._fields = self._text.replace("\n", "\t").split("\t")
        width = len(self.names)
        return self._fields[width + k : width * (self._size + 1) : width]

    def floats(self, k: int) -> tuple[np.ndarray, int | None]:
        """Column ``k`` as float64 values, and its first field that is not
        a number (see :func:`parse_floats`)."""
        return parse_floats("\t".join(self.column(k))) if self._size else parse_numbers([])

    def factor(self, k: int) -> Factorized:
        """Column ``k`` factorized against its seed vocabulary, if any,
        computed once."""
        if k not in self._factors:
            vocabulary = self._vocabularies[k] if k < len(self._vocabularies) else ()
            self._factors[k] = factorize(self.column(k), vocabulary)
        return self._factors[k]

    def fail(self, k: int, message: str):
        raise ParseError(message, self.path, self.line(k))

    def raise_first(self, *checks) -> None:
        """Raise the ParseError of the first record that fails a check.

        Each check is ``(k, message)``: ``k`` is the first record failing
        it, or None, and ``message(k)`` the error's text. Checks are listed
        in the order they apply to one record, which breaks ties.
        """
        failed = [(k, order) for order, (k, _) in enumerate(checks) if k is not None]
        if failed:
            k, order = min(failed)
            self.fail(k, checks[order][1](k))


def first_true(mask) -> int | None:
    """The index of the first true entry of a boolean array, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def read_text(path) -> str:
    """A UTF-8 file's whole text, with CRLF and lone CR read as LF.

    A file that is not UTF-8 raises :class:`ParseError` with the path and
    the 1-based line of its first bad byte.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        pass
    # the decoder's offset need not count from the start of the file, so
    # decode the raw bytes again to place the first bad one
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        message = f"not UTF-8 text: byte 0x{data[exc.start]:02x} ({exc.reason})"
        raise ParseError(message, path, head.count(b"\n") + 1) from None


def read_table(path, header=None, key_fields=1, vocabularies=()) -> Table:
    """Read a table file and check it against the format's rules.

    ``header``, when given, is the sequence of column names the file's
    header must list. ``vocabularies``, when given, holds the seed
    vocabulary of each key column in turn (see :func:`factorize`).
    """
    text = read_text(path)
    end = text.find("\n")
    first = text if end < 0 else text[:end]
    expected = first if header is None else "\t".join(header)
    if first != expected:
        raise ParseError(f"expected header {expected!r}, got {first!r}", path, 1)
    names = first.split("\t")
    if len(set(names)) != len(names):
        raise ParseError("duplicate column name in header", path, 1)

    # each line's tabs and its LF: a file whose records have the header's
    # width repeats the header's pattern
    row = b"\t" * (len(names) - 1) + b"\n"
    seps = _separators(text)
    pattern = row * seps.count(b"\n")
    linenos = None
    # a line with a tab is not blank, so a blank line can hide only where
    # the pattern breaks, or in a one-column table
    if (len(names) == 1 or seps != pattern) and "\n\n" in text:
        # such files are rare: number the other lines one at a time, and
        # drop the blank ones
        lines = text.split("\n")
        del text  # one copy of the file's text at a time
        linenos = [k for k, line in enumerate(lines[1:], start=2) if line]
        text = "\n".join([first, *filter(None, lines[1:])])
        del lines
        seps = _separators(text)
        pattern = row * seps.count(b"\n")
    size = seps.count(b"\n") - 1
    misfit = got = None
    if seps != pattern:
        # the header fits, so the first byte that differs lies in the
        # first record of the wrong width
        n = min(len(seps), len(pattern))
        at = first_true(np.frombuffer(seps, np.uint8, n) != np.frombuffer(pattern, np.uint8, n))
        start = seps.rfind(b"\n", 0, at) + 1
        misfit = seps.count(b"\n", 0, start) - 1
        got = seps.index(b"\n", start) - start + 1
    table = Table(path, names, text, size, linenos, vocabularies)
    # the records before the first of the wrong width are aligned, so the
    # first entries of a key column are theirs
    aligned = size if misfit is None else misfit
    if key_fields == 1 and len(names) > 1:
        # the text before a record's first tab, without splitting the rest
        # (an expression record holds one field per gene)
        keys = [factorize([line.partition("\t")[0] for line in islice(table.records, aligned)])]
    else:
        keys = [Factorized(f.names, f.codes[:aligned]) for f in map(table.factor, range(key_fields))]

    def duplicate(k):
        fields = next(islice(table.records, k, None)).split("\t")
        return f"duplicate {'/'.join(names[:key_fields])} {itemgetter(*range(key_fields))(fields)!r}"

    table.raise_first(
        (misfit, lambda k: f"expected {len(names)} fields, got {got}"),
        (first_repeat(*keys), duplicate),
    )
    return table


def _separators(text: str) -> bytes:
    """The text's tabs and LFs, in order, taken out in C-level passes over
    slices whose copies stay small beside the text; and an LF for a last
    line that lacks one."""
    seps = b"".join(
        text[k : k + _SCAN_CHUNK].encode().translate(None, _NON_SEPARATORS)
        for k in range(0, len(text), _SCAN_CHUNK)
    )
    return seps if text.endswith("\n") else seps + b"\n"


def first_repeat(*columns: Factorized) -> int | None:
    """The first entry whose codes, one per column, are those of an earlier
    entry, or None."""
    keys = np.ravel_multi_index([c.codes for c in columns], [len(c.names) for c in columns])
    order = np.argsort(keys, kind="stable")
    # in a run of equal keys, every entry but the first is a repeat
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    return int(repeats.min()) if repeats.size else None


def parse_numbers(texts: list[str], dtype=np.float64):
    """Parse numeric fields, checking each in turn by the format's rule
    (``float()``, or ``int()`` for an integer ``dtype``, refusing ``_`` and
    surrounding whitespace): the reference reader of numbers.

    Returns the values of the longest prefix of ``texts`` that holds only
    numbers, as a ``dtype`` array, and the index of the first field that is
    not a number (None if every field is).
    """
    stop = next((k for k, text in enumerate(texts) if not _is_number(text, dtype)), None)
    return np.array(texts[:stop], dtype=dtype), stop


def parse_floats(text: str) -> tuple[np.ndarray, int | None]:
    """What ``parse_numbers(text.split("\\t"))`` returns, bit for bit, for
    a row or column of float64 fields joined by tabs.

    A line whose fields hold only ``0-9 . e E + -`` is read as one JSON
    array by orjson, which rounds as ``float()`` does. JSON's numbers are a
    subset of ``float()``'s, so a field JSON refuses (``+1``, ``.5``,
    ``007``, an empty field, ``1e400``) sends the line to
    :func:`parse_numbers`. So does a zero read from a line with a field
    ending in ``-0``: JSON reads the integer ``-0`` as +0.0, ``float()`` as
    -0.0.
    """
    if text and text.isascii() and not text.encode().translate(None, _JSON_NUMBER_BYTES):
        try:
            values = orjson.loads("[" + text.replace("\t", ",") + "]")
        except orjson.JSONDecodeError:
            pass
        else:
            row = np.fromiter(values, np.float64, len(values))
            # only a row holding a zero can hold the field -0
            if row.all() or not (text.endswith("-0") or "-0\t" in text):
                return row, None
    return parse_numbers(text.split("\t"))


def _is_number(text: str, dtype) -> bool:
    if "_" in text or text != text.strip():
        return False
    try:
        dtype(text)
    except (ValueError, OverflowError):
        return False
    return True


def write_table(path, header, records) -> None:
    """Write the header's column names, then each record's fields, joined by tabs.

    A record must have one field per column, a name or field holding a
    tab, LF or CR would read back as other fields or lines, and a line of
    one empty field would read back as a skipped blank line; each raises
    ValueError, after the lines before the refused one are written. The
    records are joined, checked and written ``RECORD_BLOCK`` at a time,
    by :func:`write_blocks`.
    """
    write_blocks(path, header, _record_blocks(len(header), iter(records)))


def _record_blocks(width: int, records):
    """The text of each ``RECORD_BLOCK`` records of ``width`` fields.

    A block is checked in C-level passes: its records' widths, and its
    tabs and LFs, which must be those the joins put in, with no CR and
    no empty line. Only a block that fails is checked record by record:
    its lines before the first bad record are yielded, and that record's
    ValueError raised.
    """
    for block in iter(lambda: list(islice(records, RECORD_BLOCK)), []):
        text = "\n".join(map("\t".join, block)) + "\n"
        n = len(block)
        if (
            set(map(len, block)) == {width}
            and text.count("\t") == (width - 1) * n
            and text.count("\n") == n
            and "\r" not in text
            and text[0] != "\n"
            and "\n\n" not in text
        ):
            yield text
            continue
        for k, fields in enumerate(block):
            try:
                _check_record(fields, width)
            except ValueError:
                yield "".join(map("{}\n".format, map("\t".join, block[:k])))
                raise


def _check_record(fields, width: int) -> None:
    """Raise ValueError if a record of ``fields`` cannot be a line of a
    table of ``width`` columns."""
    if len(fields) != width:
        raise ValueError(f"expected {width} fields, got {len(fields)}")
    check_fields(fields)
    if not "\t".join(fields):
        raise ValueError("an empty field alone on a line would be read as a blank line")


def write_blocks(path, header, blocks) -> None:
    """Write the header's column names joined by tabs, then each text of
    ``blocks`` in one write: every table file is written here.

    The header is checked as a record (see :func:`write_table`). Each text
    is whole lines, each ended by an LF, that its maker has checked; a
    maker that refuses raises ValueError after yielding the lines before
    the refused one. The file is opened by :func:`open_table`.
    """
    with open_table(path) as fh:
        _check_record(header, len(header))
        fh.write("\t".join(header) + "\n")
        for text in blocks:
            fh.write(text)


def write_float_rows(path, header, ids, values) -> None:
    """Write the header, then one line per ID: the ID, then its row of
    ``values``, a 2-D float array with one row per ID and one column per
    header name after the first, each value spelled as by
    :func:`float_column`.

    Rows are formatted ``FLOAT_CHUNK`` values at a time (at least one row)
    by one :func:`_float_texts` call and written in one write. An ID
    holding a tab, LF or CR raises ValueError after the header is written,
    and a non-finite value after the blocks of rows before its own. A
    float's text holds no tab, LF or CR, so the lines need no other check.
    """
    matrix = np.ascontiguousarray(values, np.float64)
    if not matrix.shape[1]:
        # a one-column table of the IDs alone
        write_table(path, header, zip(ids))
        return

    def blocks():
        check_fields(ids)
        step = max(1, FLOAT_CHUNK // matrix.shape[1])
        for k in range(0, len(ids), step):
            block = matrix[k : k + step]
            _check_finite(block)
            yield "".join(map("{}\t{}\n".format, ids[k : k + step], _float_texts(block)))

    write_blocks(path, header, blocks())


def check_fields(fields) -> None:
    """Raise ValueError naming the first field that holds a tab, LF or CR."""
    for cell in fields:
        if "\t" in cell or "\n" in cell or "\r" in cell:
            raise ValueError(f"field {cell!r} contains a tab or line break")


@contextmanager
def open_table(path):
    """``path`` opened for writing a table: UTF-8 text with LF line ends.

    When the block stops on any exception, the regular file ``path``
    names, through any symlinks, is removed, since its first lines would
    read back as a valid, shorter table; a link is left in place, and a
    FIFO, a device or this process's stdout or stderr (``/dev/stdout``,
    even when redirected to a file) is left as it is.
    """
    fh = open(path, "w", encoding="utf-8", newline="\n")
    written = os.fstat(fh.fileno())
    try:
        with fh:
            yield fh
    except BaseException:
        if stat.S_ISREG(written.st_mode) and not _standard_stream(written):
            os.remove(os.path.realpath(path))
        raise


def _standard_stream(info: os.stat_result) -> bool:
    """Whether ``info`` describes the file open as this process's stdout or stderr."""
    for fd in (1, 2):
        try:
            if os.path.samestat(info, os.fstat(fd)):
                return True
        except OSError:  # the descriptor is closed
            pass
    return False


def _float_texts(array) -> list[str]:
    """The text of each row of a finite, C-contiguous float64 array, a
    1-D array being one column: its values' ``repr`` joined by tabs.

    orjson formats the whole array in one call. In [1e-4, 1e16) it spells
    every double as ``repr`` does: the shortest decimal that reads back to
    the same double, with a ``.`` and no exponent. A nonzero value outside
    that range, where ``repr`` writes an exponent, takes ``repr`` itself;
    and if orjson spells any cell with an ``e`` or without a ``.``, each
    cell is checked and each such one takes ``repr``, so the text does not
    depend on orjson's version.
    """
    if not len(array):
        return []
    magnitude = np.abs(array)
    by_repr = (magnitude >= 1e16) | ((magnitude < 1e-4) & (array != 0.0))
    n_repr = np.count_nonzero(by_repr)
    # orjson spells NaN, put in place of those values, as null, so that one
    # scan of the text checks only the cells whose orjson spelling is kept
    shown = np.where(by_repr, np.nan, array) if n_repr else array
    # the values joined by commas; a 2-D array's rows joined by "],["
    text = orjson.dumps(shown, option=orjson.OPT_SERIALIZE_NUMPY)[array.ndim : -array.ndim].decode()
    if "e" in text or text.count(".") != array.size - n_repr:
        cells = text.replace("],[", ",").split(",")
        cells = [t if "." in t and "e" not in t else repr(x) for t, x in zip(cells, array.ravel().tolist())]
        width = array.size // len(array)
        return ["\t".join(cells[k : k + width]) for k in range(0, len(cells), width)]
    if n_repr:
        pieces = text.split("null")
        reprs = map(repr, array[by_repr].tolist())
        text = "".join(chain.from_iterable(zip(pieces, reprs))) + pieces[-1]
    return text.split(",") if array.ndim == 1 else text.replace(",", "\t").split("]\t[")


def _check_finite(array) -> None:
    """Raise ValueError naming the first non-finite value of an array."""
    bad = first_true(~np.isfinite(array.ravel()))
    if bad is not None:
        raise ValueError(f"cannot format non-finite value {array.ravel()[bad]}")


def float_column(values):
    """The ``repr`` of each value of a row or column, as a float64, as an
    iterator that formats ``FLOAT_CHUNK`` values at a time, so only one
    chunk's strings are held. A non-finite value raises ValueError at the
    call, naming the first, before any text is made."""
    array = np.ascontiguousarray(values, np.float64)
    _check_finite(array)
    chunks = (array[k : k + FLOAT_CHUNK] for k in range(0, array.size, FLOAT_CHUNK))
    return chain.from_iterable(map(_float_texts, chunks))
