"""CSV ingestion and serialization.

Interchange formats:

* panel: CSV with a header row of region labels, one row per time point;
* dense W: square numeric CSV, zero diagonal, no header;
* edge list: one "i,j" pair per line, 1-based region indices;
* coordinates: "label,x,y" lines; the first line is a header if neither its
  x nor its y is a number.

Lines starting with ``#`` are metadata comments and are skipped on load.
All writes go through a temp file plus atomic rename, so a failed run never
leaves a partial output behind.  Floats are written with 17 significant
digits, making save/load round trips lossless.
"""

from __future__ import annotations

import codecs
import csv
import io as _io
import json
import os
import shutil

import numpy as np

from .exceptions import (
    DuplicateLabelError,
    NonIntegerError,
    NonNumericError,
    OutputPathError,
    ParseError,
    RaggedRowError,
)
from .statistic import SpatialPanel
from .weights import ProximityMatrix, adjacency_from_edges, inverse_distance

_FMT = "%.17g"


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via temp-file + rename; never leaves partial files.

    The text is written as UTF-8, the encoding every loader reads, whatever
    the locale.  A new file gets the mode ``open(path, "w")`` would give it,
    0o666 less the umask; a replaced file keeps its mode.
    """
    if not path:
        raise OutputPathError("the output path is empty")
    # the rename would replace a FIFO or device node, and fail on a directory
    if os.path.exists(path) and not os.path.isfile(path):
        raise OutputPathError(f"{path!r} exists and is not a regular file")
    d = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}.part")
    # exclusive, like tempfile.mkstemp, but created 0o666 so the umask applies
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        if os.path.isfile(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, meta: dict | None, header, rows) -> None:
    """Atomically write an optional ``# meta:`` line, an optional header row and
    the data rows as CSV, floats with 17 significant digits."""
    buf = _io.StringIO()
    if meta:
        buf.write("# meta: " + json.dumps(meta, sort_keys=True) + "\n")
    w = csv.writer(buf, lineterminator="\n")
    if header:
        w.writerow(header)
    w.writerows(
        [_FMT % v if isinstance(v, (float, np.floating)) else v for v in row]
        for row in rows
    )
    atomic_write_text(path, buf.getvalue())


def _data_lines(path: str):
    """(line_number, CSV fields) pairs with comments and blank lines skipped."""
    with open(path, "rb") as fh:
        # a byte-order mark, as spreadsheet "CSV UTF-8" exports write, is not text
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ParseError(f"{path}: line {line} is not UTF-8 text") from None
    for lineno, line in enumerate(_io.StringIO(text, newline=""), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, next(csv.reader([line]))


def _parse_cell(raw: str, row: int, col: int) -> float:
    cell = raw.strip()
    if cell == "":
        raise ParseError(f"blank cell at row {row}, column {col}")
    try:
        return float(cell)
    except ValueError:
        raise NonNumericError(f"non-numeric cell {cell!r} at row {row}, column {col}")


def _parse_index(raw: str, row: int, col: int) -> int:
    value = _parse_cell(raw, row, col)
    if not value.is_integer():
        raise NonIntegerError(
            f"region index {raw.strip()!r} at row {row}, column {col} is not an integer"
        )
    return int(value)


def load_panel(path: str) -> SpatialPanel:
    """Load a time-by-region panel from CSV with a region-label header row."""
    rows = []
    labels = None
    for lineno, fields in _data_lines(path):
        if labels is None:
            labels = [f.strip() for f in fields]
            if "" in labels:
                col = labels.index("") + 1
                raise ParseError(f"row {lineno}, column {col}: blank region label")
            dups = [lb for k, lb in enumerate(labels) if lb in labels[:k]]
            if dups:
                raise DuplicateLabelError(
                    f"row {lineno}: duplicate region label {dups[0]!r}"
                )
            continue
        if len(fields) != len(labels):
            raise RaggedRowError(
                f"row {lineno} has {len(fields)} cells, header has {len(labels)}"
            )
        rows.append([_parse_cell(c, lineno, j + 1) for j, c in enumerate(fields)])
    if labels is None or not rows:
        raise ParseError(f"{path}: no data rows")
    return SpatialPanel(np.array(rows), tuple(labels))


def save_panel(path: str, panel: SpatialPanel, meta: dict | None = None) -> None:
    _write_csv(path, meta, panel.region_labels, panel.data)


def load_weights(
    path: str, kind: str = "dense", n_regions: int | None = None
) -> ProximityMatrix:
    """Load a proximity matrix as a dense CSV, an edge list, or coordinates."""
    if kind == "dense":
        return _load_dense(path)
    if kind == "edges":
        return _load_edges(path, n_regions)
    if kind == "coords":
        return _load_coords(path)
    raise ParseError(f"unknown weights kind {kind!r}")


def _load_dense(path: str) -> ProximityMatrix:
    """A dense W file, whose rows must be of equal length; :class:`ProximityMatrix`
    checks the rest, squareness and the diagonal too, as for W from any source."""
    rows = []
    for lineno, fields in _data_lines(path):
        if rows and len(fields) != len(rows[0]):
            raise RaggedRowError(f"row {lineno} has {len(fields)} cells, not {len(rows[0])}")
        rows.append([_parse_cell(c, lineno, j + 1) for j, c in enumerate(fields)])
    if not rows:
        raise ParseError(f"{path}: empty weight matrix")
    return ProximityMatrix(np.array(rows))


def _load_edges(path: str, n_regions: int | None) -> ProximityMatrix:
    edges = []
    for lineno, fields in _data_lines(path):
        if len(fields) != 2:
            raise ParseError(f"row {lineno}: expected 'i,j', got {','.join(fields)!r}")
        i, j = (_parse_index(c, lineno, k + 1) for k, c in enumerate(fields))
        edges.append((i, j))
    if not edges and n_regions is None:
        raise ParseError(f"{path}: empty edge list and no region count given")
    R = n_regions if n_regions is not None else max(max(e) for e in edges)
    return adjacency_from_edges(edges, R)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _load_coords(path: str) -> ProximityMatrix:
    labels, points = [], []
    for k, (lineno, fields) in enumerate(_data_lines(path)):
        if len(fields) != 3:
            raise ParseError(f"row {lineno}: expected 'label,x,y'")
        numeric = [_is_number(c) for c in fields[1:]]
        if k == 0 and not any(numeric):
            continue  # a header: only a first row whose x and y are both non-numeric
        if not all(numeric):
            raise NonNumericError(f"row {lineno}: non-numeric coordinates")
        label = fields[0].strip()
        if not label:
            raise ParseError(f"row {lineno}: blank region label")
        if label in labels:
            raise DuplicateLabelError(f"row {lineno}: duplicate region label {label!r}")
        labels.append(label)
        points.append((float(fields[1]), float(fields[2])))
    if not points:
        raise ParseError(f"{path}: no coordinate rows")
    return inverse_distance(points, labels)


def save_weights(path: str, W: ProximityMatrix, meta: dict | None = None) -> None:
    _write_csv(path, meta, None, W.weights)


def save_samples(path: str, samples: np.ndarray, meta: dict | None = None) -> None:
    """Single-column CSV of null samples."""
    _write_csv(path, meta, ["sample"], ([v] for v in samples))


def save_spectrum(path: str, eigenvalues: np.ndarray, meta: dict | None = None) -> None:
    _write_csv(path, meta, ["k", "lambda"], enumerate(eigenvalues, start=1))


def save_sweep(path: str, sweep, meta: dict | None = None) -> None:
    """Moment-summary CSV: model, theta, mean, sd, skewness, kurtosis."""
    _write_csv(
        path, meta, ["model", "theta", "mean", "sd", "skewness", "kurtosis"],
        ([sweep.model, theta, *summary] for theta, summary in sweep.summaries.items()),
    )


def save_acf_table(path: str, table: dict, threshold: float,
                   meta: dict | None = None) -> None:
    """ACF CSV: one row per lag, one column per region, threshold in meta."""
    _write_csv(
        path, {**(meta or {}), "threshold_95": threshold}, ["lag", *table],
        ([lag, *vals] for lag, vals in enumerate(zip(*table.values()))),
    )
