"""The tab-separated table format of every orthomask table file.

A table is UTF-8 text with LF line ends. The first line is the header: a
tab-separated list of distinct column names. Each later non-blank line is
a record with as many tab-separated fields as the header has names; blank
lines are skipped but still counted. The first ``key_fields`` fields of a
record are its key, and no key appears twice. A file that breaks a rule
raises :class:`ParseError` with the path and the 1-based line number, so
its message starts ``path:line:``. What a cell may hold (a number, a gene
ID, a flag) is checked by the reader of each format. No name or field
holds a tab, LF or CR, and no line is empty (a one-column table has no
empty field); the writer refuses either.

Floats are written by :func:`float_repr`, so a file's bytes depend only on
its values.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter

from .errors import ParseError


def read_table(path, header=None, key_fields=1):
    """Yield the header's names, then ``(lineno, fields)`` for each record.

    ``header``, when given, is the sequence of column names the file's
    header must list.
    """
    with open(path, encoding="utf-8") as fh:
        line = fh.readline().rstrip("\n")
        expected = line if header is None else "\t".join(header)
        if line != expected:
            raise ParseError(f"expected header {expected!r}, got {line!r}", path, 1)
        names = line.split("\t")
        if len(set(names)) != len(names):
            raise ParseError("duplicate column name in header", path, 1)
        yield names

        width, key_of, seen = len(names), itemgetter(*range(key_fields)), set()
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != width:
                raise ParseError(f"expected {width} fields, got {len(fields)}", path, lineno)
            key = key_of(fields)
            if key in seen:
                raise ParseError(f"duplicate {'/'.join(names[:key_fields])} {key!r}", path, lineno)
            seen.add(key)
            yield lineno, fields


def write_table(path, header, records) -> None:
    """Write the header's column names, then each record's fields, joined by tabs.

    A name or field holding a tab, LF or CR would read back as other
    fields or lines, a line of one empty field would read back as a
    skipped blank line, and a record must have one field per column; each
    raises ValueError.
    """
    tabs = len(header) - 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for fields in chain((header,), records):
            line = "\t".join(fields)
            if not line or line.count("\t") != tabs or "\n" in line or "\r" in line:
                for cell in fields:
                    if "\t" in cell or "\n" in cell or "\r" in cell:
                        raise ValueError(f"field {cell!r} contains a tab or line break")
                if len(fields) != tabs + 1:
                    raise ValueError(f"expected {tabs + 1} fields, got {len(fields)}")
                raise ValueError("an empty field alone on a line would be read as a blank line")
            fh.write(line + "\n")


def float_repr(x: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    if not math.isfinite(x):
        raise ValueError(f"cannot format non-finite value {x}")
    return repr(float(x))
