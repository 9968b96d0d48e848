"""The tab-separated table format of every orthomask table file.

A table is UTF-8 text with LF line ends. The first line is the header: a
tab-separated list of distinct column names. Each later non-blank line is
a record with as many tab-separated fields as the header has names; blank
lines are skipped but still counted. The first ``key_fields`` fields of a
record are its key, and no key appears twice. A file that breaks a rule
raises :class:`ParseError` with the path and the 1-based line number, so
its message starts ``path:line:``. What a cell may hold (a number, a gene
ID, a flag) is checked by the reader of each format.

Floats are written by :func:`float_repr`, so a file's bytes depend only on
its values.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .errors import ParseError


def read_table(path, header=None, key_fields=1):
    """Yield the header's names, then ``(lineno, fields)`` for each record.

    ``header``, when given, is the exact header line the file must have.
    """
    with open(path, encoding="utf-8") as fh:
        line = fh.readline().rstrip("\n")
        if header is not None and line != header:
            raise ParseError(f"expected header {header!r}, got {line!r}", path, 1)
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
    """Write the header line, then each record's fields joined by tabs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines("\t".join(fields) + "\n" for fields in records)


def float_repr(x: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    if not math.isfinite(x):
        raise ValueError(f"cannot format non-finite value {x}")
    return repr(float(x))
