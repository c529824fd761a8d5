"""Model-file container and sweep CSV output.

Models, scaled families and Stratonovich coefficients share one JSON
container with complex entries stored as two-element arrays [re, im].  The
table ``_KINDS`` names, for each ``kind`` string, the class and its
``MATRIX_FIELDS`` in file order; ``model.field_shape``, the package's one
shape rule, gives each field's declared shape from ``n_inputs`` and
``dim``, and both ``dumps`` and ``loads`` run off them.  The
writer renders every float with 17 significant digits, which round-trips
binary64 exactly, and emits keys in a fixed order so that write -> read ->
write is byte stable.  It formats only the nonzero cells; a zero cell is the
literal ``[0,0]``.

The reader takes each matrix field straight from the file text.  The
field's span (its value, made of brackets, commas, whitespace and number
characters only) is swapped for a placeholder before ``json.loads`` parses
the rest of the document.  The span is checked as a whole with array
operations on its bytes, and only the cells that do not read ``[0,0]`` are
parsed, as ``json.loads`` parses a number.  Anything that does not fit (other
characters in a span, a key that appears twice or is spelled with escapes, a
ragged row, a non-pair cell, a token that is not a JSON number, an integer
past the float range) sends the whole text to ``json.loads`` and the
per-cell walk, which names the defect (bool, string, null, non-pair cell,
ragged row, number past the float range) at ``(i, j)``.

Sweep results go to CSV with the header line

    s_re,s_im,block_row,block_col,entry_row,entry_col,re,im,status

and one row per grid point per matrix entry ((n*m)^2 rows per point).
Points where the resolvent is singular keep their rows, with nan values and
the error name in the status column.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .adiabatic import ScaledSLHFamily
from .errors import SlhkitError
from .model import SLHModel, field_shape
from .reduction import BlockPartition
from .stratonovich import StratonovichCoefficients

SWEEP_HEADER = "s_re,s_im,block_row,block_col,entry_row,entry_col,re,im,status"

# kind -> (class, its matrix fields in file order)
_KINDS = {kind: (cls, cls.MATRIX_FIELDS) for kind, cls in (
    ("slh", SLHModel), ("family", ScaledSLHFamily),
    ("stratonovich", StratonovichCoefficients))}


class ModelFileError(SlhkitError, ValueError):
    """Structured parse error naming the offending field (and index)."""

    def __init__(self, field, message, index=None):
        self.field = field
        self.index = index
        where = f"{field}[{index}]" if index is not None else field
        super().__init__(f"{where}: {message}")


def _fmt(x: float) -> str:
    if x != x:  # nan
        return "nan"
    if x == 0.0:
        return "0"  # normalize -0.0, whose sign JSON integers cannot carry
    return f"{float(x):.17g}"


def _matrix_to_json(M: np.ndarray) -> str:
    M = np.asarray(M, dtype=complex)
    # Most cells of a model are exactly 0 (-0.0 included), and _fmt prints
    # both parts of such a cell as 0, so only nonzero cells are formatted.
    cells = ["[0,0]"] * M.size
    nonzero = np.flatnonzero(M)
    for k, z in zip(nonzero.tolist(), M.ravel()[nonzero].tolist()):
        cells[k] = f"[{_fmt(z.real)},{_fmt(z.imag)}]"
    cols = M.shape[1]
    rows = (",".join(cells[i * cols:(i + 1) * cols]) for i in range(M.shape[0]))
    return "[" + ",".join(f"[{row}]" for row in rows) + "]"


def _matrix_from_json(obj, field: str) -> np.ndarray:
    """The per-cell walk: a parsed matrix field, or the defect at (i, j)."""
    if not isinstance(obj, list) or not obj:
        raise ModelFileError(field, "expected a nonempty list of rows")
    ncols = None
    data = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or (ncols is not None and len(row) != ncols):
            raise ModelFileError(field, "rows must be lists of equal length", index=i)
        ncols = len(row)
        out_row = []
        for j, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    # type(), not isinstance(): JSON true is a bool, and bools are ints
                    or not all(type(v) in (int, float) for v in cell)):
                raise ModelFileError(field, "entries must be [re, im] pairs",
                                     index=(i, j))
            try:
                out_row.append(complex(cell[0], cell[1]))
            except OverflowError:
                raise ModelFileError(field, "entry exceeds the float range",
                                     index=(i, j)) from None
        data.append(out_row)
    return np.array(data, dtype=complex)


# A matrix field as it sits in the text: its key, then a value made of JSON
# whitespace, brackets, commas and the characters of JSON numbers only.
_MATRIX_KEYS = sorted({key for _, fields in _KINDS.values() for key in fields})
_SPAN = re.compile(r'"(%s)"[ \t\n\r]*:[ \t\n\r]*(\[[-+0-9.eE\[\], \t\n\r]*\])'
                   % "|".join(_MATRIX_KEYS))
# a whole run of number characters that is one JSON number; groups: fraction, exponent
_NUMBER = re.compile(rb"-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?(?![-+.0-9eE])")
# byte -> its token class: n for a number character, brackets and commas as
# themselves, 0 for whitespace
_TOKEN = np.zeros(256, dtype=np.uint8)
_TOKEN[list(b"-+.0123456789eE")] = ord("n")
_TOKEN[list(b"[],")] = list(b"[],")


def _json_number(buf: bytes, at: int):
    """The number whose run starts at ``at``, as json.loads reads it."""
    match = _NUMBER.match(buf, at)
    if match is None:
        raise ValueError("not a JSON number")
    return float(match[0]) if match[1] or match[2] else int(match[0])


def _matrix_from_text(span: str):
    """A matrix field read from its text, or None where the span is anything
    but a nonempty list of equal rows of [re, im] pairs of JSON numbers.

    No Python object is made for a cell that reads exactly [0,0]; every
    other cell is parsed as json.loads and the per-cell walk would read it.
    """
    buf = span.encode("ascii")  # the span pattern admits ASCII only
    b = np.frombuffer(buf, dtype=np.uint8)
    tokens = _TOKEN[b]
    number = tokens == ord("n")
    first = number.copy()  # first character of each run of number characters
    first[1:] &= ~number[:-1]
    # One n per run, so the skeleton of a rows x cols matrix is exactly
    # [[[n,n],...,[n,n]],...] (whitespace inside a number splits its run).
    skeleton = tokens[first | ((tokens != 0) & ~number)].tobytes()
    cols = skeleton.find(b"]]") // 6
    row = b"[" + b",".join([b"[n,n]"] * cols) + b"]"
    rows = (len(skeleton) - 1) // (len(row) + 1)
    if cols < 1 or skeleton != b"[" + b",".join([row] * rows) + b"]":
        return None
    starts = np.flatnonzero(first)  # re, im, re, im, ... in cell order
    zero = (b[starts] == ord("0")) & ~number[starts + 1]  # the run is the integer 0
    nonzero = np.flatnonzero(~(zero[0::2] & zero[1::2]))
    try:
        values = [complex(_json_number(buf, re_at), _json_number(buf, im_at))
                  for re_at, im_at in starts.reshape(-1, 2)[nonzero].tolist()]
    except (ValueError, OverflowError):  # not a JSON number; past the float range
        return None
    out = np.zeros(rows * cols, dtype=complex)
    out[nonzero] = values  # 1e400 reads as inf, as in the walk; the model refuses it
    return out.reshape(rows, cols)


def _text_document(text: str):
    """The document with each matrix field read from its text, or None.

    Each matrix span is swapped for a placeholder string and the rest of the
    text goes to json.loads.  Anything that does not fit returns None: a
    span that is not a plain matrix, a key that appears twice, or a
    placeholder that does not end up as the value of its own key (a span
    inside a string or a nested object, or a later escaped spelling of the
    key).  The NUL in the placeholders cannot come from a text without a
    \\u0000 escape.
    """
    if "\\u0000" in text:
        return None
    spans = {}
    pieces = []
    end = 0
    for match in _SPAN.finditer(text):
        key = match[1]
        if key in spans:
            return None
        spans[key] = match[2]
        pieces += (text[end:match.start(2)], f'"\\u0000{key}"')
        end = match.end(2)
    pieces.append(text[end:])
    try:
        doc = json.loads("".join(pieces))
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict):
        return None
    for key, span in spans.items():
        if doc.get(key) != "\0" + key:
            return None
        doc[key] = _matrix_from_text(span)
        if doc[key] is None:
            return None
    return doc


def dumps(obj) -> str:
    """Canonical text form of a model, family, or coefficient set."""
    for kind, (cls, fields) in _KINDS.items():
        if isinstance(obj, cls):
            break
    else:
        raise ModelFileError("kind", f"unsupported object type {type(obj).__name__}")
    parts = [f'"kind":"{kind}"', f'"n_inputs":{obj.n_inputs}', f'"dim":{obj.dim}']
    parts += [f'"{key}":{_matrix_to_json(getattr(obj, key))}' for key in fields]
    if kind == "family":
        parts.append('"slow_indices":[' + ",".join(str(int(i)) for i in obj.partition.slow_indices) + "]")
    if kind == "slh" and obj.basis_labels is not None:
        parts.append('"basis_labels":' + json.dumps(list(obj.basis_labels)))
    return "{" + ",".join(parts) + "}\n"


def write_model(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def loads(text: str):
    """Parse a model file; returns SLHModel, ScaledSLHFamily, or coefficients."""
    doc = _text_document(text)
    if doc is None:
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad JSON, a huge integer, deep nesting
            raise ModelFileError("document", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFileError("document", "top level must be an object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ModelFileError("kind", f"must be one of {sorted(_KINDS)}, got {kind!r}")
    for field in ("n_inputs", "dim"):
        if type(doc.get(field)) is not int or doc[field] < 1:
            raise ModelFileError(field, "must be a positive integer")
    n, m = doc["n_inputs"], doc["dim"]
    cls, fields = _KINDS[kind]
    mats = {}
    for key in fields:
        if key not in doc:
            raise ModelFileError(key, "matrix is missing")
        value = doc[key]
        mats[key] = value if isinstance(value, np.ndarray) else _matrix_from_json(value, key)
        shape = field_shape(key, n, m)
        if mats[key].shape != shape:
            raise ModelFileError(key, f"expected shape {shape}, got {mats[key].shape}")
    if kind == "slh":
        labels = doc.get("basis_labels")
        if labels is not None and (not isinstance(labels, list) or len(labels) != m):
            raise ModelFileError("basis_labels", f"must list {m} labels")
        return cls(**mats, basis_labels=tuple(labels) if labels else None)
    if kind == "family":
        slow = doc.get("slow_indices")
        if (not isinstance(slow, list) or not slow
                or not all(type(i) is int and 0 <= i < m for i in slow)):
            raise ModelFileError("slow_indices",
                                 f"must be a nonempty list of integers in [0, {m})")
        return cls(**mats, partition=BlockPartition(dim=m, slow_indices=tuple(slow)))
    return cls(**mats)


def read_model(path):
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFileError("document", f"not UTF-8 text: {exc}") from None
    return loads(text)


# ---------------------------------------------------------------------------
# Sweep CSV.
# ---------------------------------------------------------------------------


def from_sweep_result(sweep_result):
    """(s_values, matrices, statuses) columns from a SweepResult."""
    messages = (msg for _, msg in sweep_result.failures)  # grid order
    s_values = list(sweep_result.grid.s_values())
    statuses = ["ok" if v is not None else next(messages) for v in sweep_result.values]
    return s_values, list(sweep_result.values), statuses


def sweep_rows(s_values, matrices, statuses, n_inputs: int, dim: int):
    """Yield CSV data rows (point order, then block row/col, entry row/col)."""
    n, m = n_inputs, dim
    labels = [f"{br},{bc},{er},{ec}" for br in range(n) for bc in range(n)
              for er in range(m) for ec in range(m)]
    failed = np.full(len(labels), complex("nan+nanj"))
    for s, value, status in zip(s_values, matrices, statuses):
        s = complex(s)
        head = f"{_fmt(s.real)},{_fmt(s.imag)},"
        tail = "," + status.replace(",", ";").replace("\n", " ")
        entries = failed if value is None else (
            np.asarray(value).reshape(n, m, n, m).transpose(0, 2, 1, 3).ravel())
        for label, z in zip(labels, entries.tolist()):
            # an exactly zero entry (-0.0 parts included) prints as 0,0 under _fmt
            re_im = f"{_fmt(z.real)},{_fmt(z.imag)}" if z else "0,0"
            yield f"{head}{label},{re_im}{tail}"


def write_sweep_csv(path, s_values, matrices, statuses,
                    n_inputs: int, dim: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for row in sweep_rows(s_values, matrices, statuses, n_inputs, dim):
            fh.write(row + "\n")
