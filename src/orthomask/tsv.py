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
one, to find the first repeated key; every reader takes its IDs from
that factorization, the table's ``keys``.

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

Every table is written by :func:`write_table` from its columns: ID
columns, each a :class:`Factorized` (a names tuple and each row's code
into it), and float columns, 1-D for one header column or 2-D for one per
array column. Each distinct names tuple is checked once per table and
turned into cells, each ended by its separator; the rows are then
written about ``FLOAT_CHUNK`` values per write. Every float is spelled by
one formatter, :func:`_float_texts`: each value as its ``repr``, the
shortest decimal that reads back to the same double, so a file's bytes
depend only on its values. orjson formats a block of a column, or of rows,
in one call, and ``repr`` spells each value orjson is not trusted with.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from itertools import chain, islice, repeat
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
# floats per write of write_table, and per _float_texts call (at least one
# row), or rows per write of a table of IDs alone: a write's text adds
# little to a writer's peak memory
FLOAT_CHUNK = 1 << 10


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

    def __init__(self, path, names: list[str], text: str, size: int, linenos):
        self.path = path
        self.names = names
        # each key column factorized, as read_table checked it
        self.keys: list[Factorized] = []
        # the header line, then the non-blank lines after it, in file order
        self._text = text
        self._size = size
        self._linenos = linenos  # None: no blank line follows the header
        self._fields: list[str] | None = None

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
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        message = f"not UTF-8 text: byte 0x{data[exc.start]:02x} ({exc.reason})"
        raise ParseError(message, path, head.count(b"\n") + 1) from None
    del data  # one copy of the file at a time
    if "\r" in text:  # a scan for CR alone is many times faster than for CRLF
        text = text.replace("\r\n", "\n")
        text = text.replace("\r", "\n")
    return text


def read_table(path, header=None, key_fields=1, vocabularies=()) -> Table:
    """Read a table file and check it against the format's rules.

    ``header``, when given, is the sequence of column names the file's
    header must list. ``vocabularies``, when given, holds the seed
    vocabulary of each key column in turn (see :func:`factorize`); the
    table's ``keys`` are those columns factorized against them.
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
    table = Table(path, names, text, size, linenos)
    # the records before the first of the wrong width are aligned, so the
    # first entries of a key column are theirs
    aligned = size if misfit is None else misfit
    if key_fields == 1 and len(names) > 1:
        # the text before a record's first tab, without splitting the rest
        # (an expression record holds one field per gene)
        columns = [[line.partition("\t")[0] for line in islice(table.records, aligned)]]
    else:
        columns = [table.column(k)[:aligned] for k in range(key_fields)]
    table.keys = keys = list(map(factorize, columns, chain(vocabularies, repeat(()))))

    def duplicate(k):
        key = tuple(f.names[f.codes[k]] for f in keys)
        return f"duplicate {'/'.join(names[:key_fields])} {key if key_fields > 1 else key[0]!r}"

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


def id_column(ids) -> Factorized:
    """A column of ``ids`` in order, each its own name, for
    :func:`write_table`; the IDs need not be distinct."""
    ids = tuple(ids)
    return Factorized(ids, np.arange(len(ids)))


def write_table(path, header, chunks) -> None:
    """Write the header's column names joined by tabs, then the rows of
    each chunk: every table file is written here.

    A chunk is a tuple of columns of its consecutive rows. A column is a
    :class:`Factorized`, whose cells are ``names[codes]`` (see
    :func:`id_column`), or a float array: 1-D for one header column, 2-D
    for one header column per array column. Before any of a chunk's lines
    is written, and the header line goes out with the first chunk's first
    lines, its columns' widths must sum to the header's, their lengths
    must agree, and its names (each distinct names tuple checked once per
    table, as the header's names are) must hold no tab, LF or CR and, in
    a one-column table, not be empty; else ValueError. The rows are
    written about ``FLOAT_CHUNK`` floats (or ``FLOAT_CHUNK`` rows of IDs
    alone) per write, each block's floats checked to be finite before its
    write, to a file opened by :func:`open_table`.
    """
    width = len(header)
    cells = {}  # (id of a names tuple, separator) -> the tuple, its cells
    with open_table(path) as fh:
        _check_names(header, width == 1)
        lines = chain.from_iterable(_chunk_texts(chunk, width, cells) for chunk in chunks)
        fh.write("\t".join(header) + "\n" + next(lines, ""))
        for text in lines:
            fh.write(text)


def _chunk_texts(chunk, width: int, cells: dict):
    """The lines of a chunk of a ``width``-column table, as the texts of
    :func:`write_table`'s writes, once its widths, lengths and names are
    checked (its floats block by block); ``cells`` holds the cells of each
    names tuple seen so far."""
    columns = [c if isinstance(c, Factorized) else np.ascontiguousarray(c, np.float64) for c in chunk]
    ids = [isinstance(c, Factorized) for c in columns]
    widths = [1 if is_id or c.ndim == 1 else c.shape[1] for c, is_id in zip(columns, ids)]
    if sum(widths) != width:
        raise ValueError(f"expected {width} fields, got {sum(widths)}")
    lengths = [len(c.codes) if is_id else len(c) for c, is_id in zip(columns, ids)]
    if len(set(lengths)) > 1:
        other = next(n for n in lengths if n != lengths[0])
        raise ValueError(f"columns of {lengths[0]} and {other} rows")
    # each column of nonzero width: its codes and cells, or its floats, and
    # the separator that ends its cells
    used = [(c, is_id) for c, is_id, w in zip(columns, ids, widths) if w]
    slots = []
    for k, (column, is_id) in enumerate(used):
        sep = "\t" if k < len(used) - 1 else "\n"
        if not is_id:
            slots.append((column, None, sep))
            continue
        key = (id(column.names), sep)
        if key not in cells:
            _check_names(column.names, width == 1)
            cells[key] = column.names, np.array([name + sep for name in column.names], object)
        slots.append((column.codes, cells[key][1], sep))
    step = max(1, FLOAT_CHUNK // max(1, width - sum(ids)))
    for start in range(0, max(lengths, default=0), step):
        at = slice(start, start + step)
        parts = []
        for values, texts, sep in slots:
            if texts is None:
                block = values[at]
                _check_finite(block)
                floats = _float_texts(block)
                parts += (floats, [sep] * len(floats))
            else:
                parts.append(texts[values[at]].tolist())
        lines = [""] * (len(parts) * len(parts[0]))
        for k, part in enumerate(parts):
            lines[k :: len(parts)] = part
        yield "".join(lines)


def _check_names(names, alone: bool) -> None:
    """Raise ValueError for the first name that holds a tab, LF or CR, or,
    ``alone`` in its line, is empty: either would read back as other
    fields or lines, or as a skipped blank line."""
    text = "".join(names)
    if not ("\t" in text or "\n" in text or "\r" in text or (alone and "" in names)):
        return
    for name in names:
        if "\t" in name or "\n" in name or "\r" in name:
            raise ValueError(f"field {name!r} contains a tab or line break")
        if alone and not name:
            raise ValueError("an empty field alone on a line would be read as a blank line")


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

