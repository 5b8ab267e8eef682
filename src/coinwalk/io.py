"""CSV/JSON emission and matrix input parsing for the CLI.

JSON output is byte for byte what ``json.dump(obj, stream, indent=2)``
writes, plus a final newline: a finite float prints as its shortest
round-trip ``repr``, and NaN and +-inf as ``NaN`` and ``Infinity``. CSV
prints a float with 17 significant digits (``%.17g``) and any other cell
with ``str``. Both use '.' as the decimal separator and bare newlines, so
identical runs produce byte-identical files.

Large row arrays are formatted through one ``%`` template per row shape,
_CHUNK rows at a time, instead of value by value: the bytes are the same,
the time is a fraction of json's pure-Python indenting encoder, and memory
stays flat however many rows there are. A JSON table column whose values all
print the same (equal value and type, and for floats equal sign) is written
into the template as that literal, so a constant column costs no formatting.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain, islice
from typing import IO, Iterable

import numpy as np

__all__ = ["fmt_float", "write_csv", "dump_json", "read_matrix_text", "open_out"]

_CHUNK = 4096
_FLOATS = (float, np.floating)


def fmt_float(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _cell(v) -> str:
    if isinstance(v, _FLOATS):
        return fmt_float(v)
    return str(v)


def _fill(item: str, sep: str, n: int, values: list) -> str:
    """n copies of the row template item, joined by sep and filled with
    the values of n rows, row after row."""
    return sep.join([item] * n) % tuple(values)


def _csv_chunk(rows: list) -> str:
    """Equal-length rows as CSV lines: a column of floats gets a %.17g slot,
    any other column a %s slot, and a column mixing the two is converted
    cell by cell through _cell."""
    width, flat, slots = len(rows[0]), list(chain.from_iterable(rows)), []
    for j in range(width):
        col = flat[j::width]
        floats = {issubclass(t, _FLOATS) for t in set(map(type, col))}
        if floats == {True}:
            slots.append("%.17g")
            continue
        slots.append("%s")
        if True in floats:
            flat[j::width] = map(_cell, col)
    return _fill(",".join(slots) + "\n", "", len(rows), flat)


def write_csv(stream: IO[str], header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """The header and rows as CSV lines: %.17g for a float, str for any
    other cell."""
    stream.write(",".join(header) + "\n")
    rows = iter(rows)
    while chunk := list(map(tuple, islice(rows, _CHUNK))):
        if all(len(r) == len(chunk[0]) for r in chunk):
            stream.write(_csv_chunk(chunk))
        else:
            stream.writelines(_csv_chunk([r]) for r in chunk)


def _literal(v) -> str:
    """The JSON of v as a template slot that takes no value."""
    return json.dumps(v).replace("%", "%%")


def _json_column(col) -> str | None:
    """The template slot of one column of a row table: the JSON literal of
    a column whose values all have one repr, else %r for finite ints and
    floats and %s for strings (filled with their JSON encoding). None when
    json must write the table itself."""
    types = set(map(type, col))
    if types == {str}:
        slot = "%s"
    elif not types <= {int, float}:
        return None
    else:
        floats = col if types == {float} else [v for v in col if type(v) is float]
        if not all(map(math.isfinite, floats)):
            return None
        slot = "%r"
    # equal values of one type print alike, except 0.0 and -0.0; the last
    # value turns most columns down before count reads them all
    if (len(types) == 1 and col[-1] == col[0] and col.count(col[0]) == len(col)
            and (types != {float} or len(set(map(repr, col))) == 1)):
        return _literal(col[0])
    return slot


def _json_table(v):
    """(slots, chunks) when v is a table the templates write: a 2-D finite
    int or float array, or a non-empty list of equal-length rows whose
    columns are _json_column slots. chunks yields (row count, values row
    after row, of the columns that are not literals) for each run of _CHUNK
    rows. None for any other value."""
    if isinstance(v, np.ndarray):
        # up to 8 bytes, tolist gives Python scalars, whose %r is what json
        # prints; %r of an np.float64 or np.longdouble is not
        if (v.ndim != 2 or not v.size or v.dtype.kind not in "iuf"
                or v.dtype.itemsize > 8 or not np.isfinite(v).all()):
            return None
        # equal bits: equal value and, for floats, equal sign
        bits = v.view(f"u{v.dtype.itemsize}")
        const = (bits == bits[0]).all(axis=0)
        slots = [_literal(x) if c else "%r" for x, c in zip(v[0].tolist(), const)]
        if const.any():
            v = v[:, ~const]
        chunks = ((min(_CHUNK, len(v) - i), v[i:i + _CHUNK].ravel().tolist())
                  for i in range(0, len(v), _CHUNK))
        return slots, chunks
    if not (isinstance(v, (list, tuple)) and v
            and all(isinstance(r, (list, tuple)) for r in v)):
        return None
    width = len(v[0])
    if not width or any(len(r) != width for r in v):
        return None
    slots = [_json_column([r[j] for r in v]) for j in range(width)]
    if None in slots:
        return None

    literals = [j for j, slot in enumerate(slots) if slot not in ("%r", "%s")]

    def chunks():
        for i in range(0, len(v), _CHUNK):
            flat = list(chain.from_iterable(v[i:i + _CHUNK]))
            for j, slot in enumerate(slots):
                if slot == "%s":
                    col = flat[j::width]
                    encoded = {s: json.dumps(s) for s in set(col)}
                    flat[j::width] = map(encoded.__getitem__, col)
            n = len(flat) // width
            # the last literal column first, so the earlier ones keep their index
            for k, j in enumerate(reversed(literals)):
                del flat[j::width - k]
            yield n, flat

    return slots, chunks()


def _write_value(stream: IO[str], v) -> None:
    """v as json.dump writes it one level inside the top-level object."""
    table = _json_table(v)
    if table is None:
        if isinstance(v, np.ndarray):
            v = v.tolist()
        stream.write(json.dumps(v, indent=2).replace("\n", "\n  "))
        return
    slots, chunks = table
    item = "    [\n" + ",\n".join("      " + s for s in slots) + "\n    ]"
    sep = "[\n"
    for n, values in chunks:
        stream.write(sep + _fill(item, ",\n", n, values))
        sep = ",\n"
    stream.write("\n  ]")


def dump_json(stream: IO[str], obj) -> None:
    """obj as json.dump(obj, stream, indent=2) writes it, then a newline."""
    if not (isinstance(obj, dict) and obj and all(type(k) is str for k in obj)):
        json.dump(obj, stream, indent=2)
        stream.write("\n")
        return
    sep = "{\n"
    for key, value in obj.items():
        stream.write(sep + "  " + json.dumps(key) + ": ")
        _write_value(stream, value)
        sep = ",\n"
    stream.write("\n}\n")


def read_matrix_text(text: str) -> np.ndarray:
    """Parse a 4x4 matrix from 16 whitespace-separated reals (row-major) or
    from a coin/matrix JSON object. NaN and infinite entries are rejected."""
    text = text.strip()
    if text.startswith("{"):
        from .coins import coin_from_json
        A = coin_from_json(json.loads(text)).entries
    else:
        vals = [float(v) for v in text.split()]
        if len(vals) != 16:
            raise ValueError(f"expected 16 whitespace-separated reals, got {len(vals)}")
        A = np.array(vals).reshape(4, 4)
    bad = np.argwhere(~np.isfinite(A))
    if len(bad):
        i, j = bad[0] + 1
        raise ValueError(f"matrix entry in row {i}, column {j} is not finite")
    return A


def open_out(path: str | None):
    """Stream for --out; stdout when absent."""
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True
