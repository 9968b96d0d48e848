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

A file is read in one pass: :func:`read_table` reads it whole and checks
every line against the rules at once, column by column. The same arrays
name the first bad line, so a good file and a bad one run the same code.

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

Every writer formats its floats through :func:`float_column`: each value
is spelled as its ``repr``, the shortest decimal that reads back to the
same double, so a file's bytes depend only on its values. orjson formats
``FLOAT_CHUNK`` values per call, and ``repr`` spells each value orjson is
not trusted with.
"""

from __future__ import annotations

import os
import stat
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np
import orjson

from .errors import ParseError

# the characters of a JSON number, and the tab that ends a field
_JSON_NUMBER_BYTES = b"0123456789.eE+-\t"
# values per float_texts call when float_column formats a row or column: a
# chunk's strings add little to a writer's peak memory
FLOAT_CHUNK = 1 << 12


class Factorized(NamedTuple):
    """A column as its distinct strings, in order of first appearance, and
    each entry's int64 index into them."""

    names: tuple[str, ...]
    codes: np.ndarray

    def decoded(self) -> list[str]:
        """Each entry's string, in order."""
        return np.fromiter(self.names, object, len(self.names))[self.codes].tolist()


def factorize(values) -> Factorized:
    names = tuple(dict.fromkeys(values))
    index = dict(zip(names, range(len(names))))
    return Factorized(names, np.fromiter(map(index.__getitem__, values), np.int64, len(values)))


class Table:
    """A table file's header names and records, as :func:`read_table` read them."""

    def __init__(self, path, names: list[str], records: list[str], linenos: list[int] | None):
        self.path = path
        self.names = names
        # the non-blank lines after the header, in file order
        self.records = records
        self._linenos = linenos  # None: no blank line follows the header
        self._fields: list[str] | None = None
        self._factors: dict[int, Factorized] = {}

    def __len__(self) -> int:
        return len(self.records)

    def line(self, k: int) -> int:
        """The 1-based line number of record ``k``."""
        return k + 2 if self._linenos is None else self._linenos[k]

    def column(self, k: int) -> list[str]:
        """Field ``k`` of every record."""
        if self._fields is None:
            self._fields = "\t".join(self.records).split("\t") if self.records else []
        return self._fields[k :: len(self.names)]

    def floats(self, k: int) -> tuple[np.ndarray, int | None]:
        """Column ``k`` as float64 values, and its first field that is not
        a number (see :func:`parse_floats`)."""
        return parse_floats("\t".join(self.column(k))) if self.records else parse_numbers([])

    def factor(self, k: int) -> Factorized:
        """Column ``k`` factorized, computed once."""
        if k not in self._factors:
            self._factors[k] = factorize(self.column(k))
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


def read_table(path, header=None, key_fields=1) -> Table:
    """Read a table file and check it against the format's rules.

    ``header``, when given, is the sequence of column names the file's
    header must list.
    """
    lines = read_text(path).split("\n")
    if len(lines) > 1 and not lines[-1]:
        lines.pop()  # the text after the last LF
    first = lines[0]
    expected = first if header is None else "\t".join(header)
    if first != expected:
        raise ParseError(f"expected header {expected!r}, got {first!r}", path, 1)
    names = first.split("\t")
    if len(set(names)) != len(names):
        raise ParseError("duplicate column name in header", path, 1)

    del lines[0]
    linenos = None
    if "" in lines:
        linenos = [k for k, line in enumerate(lines, start=2) if line]
        lines = list(filter(None, lines))
    table = Table(path, names, lines, linenos)
    tabs = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, len(lines))
    misfit = first_true(tabs != len(names) - 1)
    # the records before the first of the wrong width are aligned, so the
    # first entries of a key column are theirs
    aligned = len(lines) if misfit is None else misfit
    if key_fields == 1:
        # the text before a record's first tab, without splitting the rest
        # (an expression record holds one field per gene)
        firsts = map(itemgetter(0), map(str.partition, lines[:aligned], repeat("\t")))
        keys = [factorize(list(firsts))]
    else:
        keys = [Factorized(f.names, f.codes[:aligned]) for f in map(table.factor, range(key_fields))]

    def duplicate(k):
        key = itemgetter(*range(key_fields))(lines[k].split("\t"))
        return f"duplicate {'/'.join(names[:key_fields])} {key!r}"

    table.raise_first(
        (misfit, lambda k: f"expected {len(names)} fields, got {tabs[k] + 1}"),
        (first_repeat(*keys), duplicate),
    )
    return table


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
    ValueError. When writing stops on any exception, a regular file at
    ``path`` is removed, since its first lines would read back as a valid,
    shorter table; a symlink, FIFO or device is left as it is.
    """
    width = len(header)
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            for fields in chain((header,), records):
                if len(fields) != width:
                    raise ValueError(f"expected {width} fields, got {len(fields)}")
                line = "\t".join(fields)
                if line.count("\t") != width - 1 or not line or "\n" in line or "\r" in line:
                    for cell in fields:
                        if "\t" in cell or "\n" in cell or "\r" in cell:
                            raise ValueError(f"field {cell!r} contains a tab or line break")
                    raise ValueError("an empty field alone on a line would be read as a blank line")
                fh.write(line + "\n")
    except BaseException:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
        raise


def _finite_floats(values) -> np.ndarray:
    """``values`` as a contiguous float64 array; a non-finite value raises
    ValueError, naming the first."""
    array = np.ascontiguousarray(values, np.float64)
    bad = first_true(~np.isfinite(array))
    if bad is not None:
        raise ValueError(f"cannot format non-finite value {array[bad]}")
    return array


def float_texts(values) -> list[str]:
    """The ``repr`` of each value of a row or column, as a float64.

    orjson formats the whole array in one call. In [1e-4, 1e16) it spells
    every double as ``repr`` does: the shortest decimal that reads back to
    the same double, with a ``.`` and no exponent. A nonzero value outside
    that range, where ``repr`` writes an exponent, and any cell orjson
    spells with an ``e`` or without a ``.`` take ``repr`` itself, so the
    text does not depend on orjson's version.
    """
    array = _finite_floats(values)
    magnitude = np.abs(array)
    by_repr = (magnitude >= 1e16) | ((magnitude < 1e-4) & (array != 0.0))
    # orjson formats 0.0 in place of those values, so that one scan of the
    # whole text checks only the cells whose orjson spelling is kept
    shown = np.where(by_repr, 0.0, array) if by_repr.any() else array
    text = orjson.dumps(shown, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    texts = text.split(",") if text else []
    if "e" in text or text.count(".") != len(texts):
        by_repr |= np.fromiter(("e" in t or "." not in t for t in texts), bool, len(texts))
    at = np.flatnonzero(by_repr)
    for k, x in zip(at.tolist(), array[at].tolist()):
        texts[k] = repr(x)
    return texts


def float_column(values):
    """:func:`float_texts` of a row or column, formatted ``FLOAT_CHUNK``
    values at a time, so only one chunk's strings are held: the list of one
    call when one chunk holds them all, else an iterator. A non-finite
    value raises at the call, before any text is made."""
    array = np.ascontiguousarray(values, np.float64)
    if array.size <= FLOAT_CHUNK:
        return float_texts(array)
    _finite_floats(array)
    chunks = (array[k : k + FLOAT_CHUNK] for k in range(0, array.size, FLOAT_CHUNK))
    return chain.from_iterable(map(float_texts, chunks))
