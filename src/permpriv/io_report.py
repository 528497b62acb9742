"""CSV ingestion and emission, JSON analysis reports, histogram export.

CSV tables carry a mandatory header row and numeric cells with period decimal
separators.  Values are written with shortest round-trip formatting, so a
write followed by a load reproduces every cell bit-exactly.  Reports are JSON
with a schema version, tool identification, the operational seeds (unless
withheld), and a free-text disclosure of the anonymization parameters.  A
report's payload is read off the analysis dataclass itself, so it names
exactly the fields the analysis carries, in declaration order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import fields, is_dataclass
from typing import Mapping

import numpy as np

from ._version import __version__
from .baseline import DistanceDistribution
from .errors import (
    EmptyInputError,
    EmptyReportError,
    EncodingError,
    InvalidSpecError,
    MalformedCsvError,
    ParseError,
    RaggedRowError,
)
from .privacy import Evidence, RecordDistanceResult
from .table import MicrodataTable, Role

SCHEMA_VERSION = 1


def load_csv(path, role: Role = Role.ORIGINAL) -> MicrodataTable:
    """Read a numeric CSV with a header row into a table.

    The file must be UTF-8.  Header names are stripped of surrounding
    whitespace.  A data cell is accepted when `float()` accepts it after CSV
    unquoting and the value is finite; blank lines and rows of blank cells are
    skipped, and every other row must have one cell per header name.

    A body made only of digits, signs, periods, exponent marks, commas and
    line ends is read by numpy's C reader, whose values are bit-identical to
    `float()`'s.  Every other body, and every plain one that holds a cell
    over the csv module's field limit or that reader refuses or reads with a
    non-finite value or a width other than the header's, goes through the
    row-by-row parser, which alone defines the accepted syntax and raises
    every cell, row and empty-file error.

    Cell errors carry positions: rows count data rows from 1 (the header is
    row 0 in spirit and excluded), columns count from 1.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():  # ASCII is UTF-8; other bytes are decoded once to check
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(
                f"{path}: file is not UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
    # lines are split as `open(newline="")` splits them, without a text copy
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError(f"{path}: file is empty") from None
    except csv.Error as exc:
        raise MalformedCsvError(path, 0, exc) from None
    names = [h.strip() for h in header]
    body = 0
    for _ in range(reader.line_num):
        body = _LINE.match(data, body).end()
    values = _read_plain(data, body, len(names))
    if values is None:
        values = _parse_rows(path, reader, len(names))
    return MicrodataTable(values, tuple(names), role=role)


# one line and its end, split where `open(newline="")` splits: \r\n, \r or \n
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
# at least one cell byte, and nothing but cell bytes and line ends
_PLAIN_BODY = re.compile(rb"[\r\n]*[0-9+\-.eE,][0-9+\-.eE,\r\n]*")
_SEPARATOR = re.compile(rb"[,\r\n]")


def _read_plain(data: bytes, start: int, width: int):
    """The body from byte `start` as read by numpy's C reader, or None.

    None unless the body holds only plain numeric bytes and the reader gives
    at least one row of `width` finite values.  `loadtxt` reads the bytes in
    place, so neither a decoded nor a sliced copy of the file is made.
    """
    if not _PLAIN_BODY.fullmatch(data, start) or not _cells_fit(data, start):
        return None
    body = io.BytesIO(data)  # shares the bytes object's buffer until written
    body.seek(start)
    try:
        values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    if len(values) < 1 or values.shape[1] != width or not np.isfinite(values).all():
        return None
    return values


def _cells_fit(data: bytes, start: int) -> bool:
    """Whether no cell of the plain body from byte `start` is over the field limit.

    A longer cell covers one of the checkpoints limit + 1 bytes apart, and
    the cell around a checkpoint is measured within limit + 1 bytes either
    side, so the check reads a few bytes per checkpoint, not the body.
    """
    limit = csv.field_size_limit()
    for p in range(start, len(data), limit + 1):
        lo = max(start, p - limit - 1)
        before = max(data.rfind(sep, lo, p) for sep in b",\r\n")
        after = _SEPARATOR.search(data, p, p + limit + 1)
        first = before + 1 if before >= 0 else lo
        end = after.start() if after else min(p + limit + 1, len(data))
        if end - first > limit:
            return False
    return True


def _parse_rows(path, reader, width: int) -> list[list[float]]:
    """Parse the rest of `reader` one cell at a time with `float()`."""
    rows: list[list[float]] = []
    r = 0
    try:
        for r, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue  # ignore blank lines
            if len(row) != width:
                raise RaggedRowError(r, width, len(row))
            parsed = []
            for c, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(r, c, cell) from None
                if not math.isfinite(value):
                    raise ParseError(r, c, cell)
                parsed.append(value)
            rows.append(parsed)
    except csv.Error as exc:  # raised by the reader while splitting row r + 1
        raise MalformedCsvError(path, r + 1, exc) from None
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")
    return rows


# Bytes of cells, at 8 per cell, one block of a written table may hold.  A
# block's strings and text take about 40 times that, so writing a table grows
# peak memory by about 5 MiB whatever its number of rows.
_WRITE_BLOCK_BYTES = 1 << 17


def write_csv(table: MicrodataTable, path) -> None:
    """Write a table; cells use shortest-round-trip float formatting.

    The body goes out in row blocks of at most _WRITE_BLOCK_BYTES of cells.
    A block calls `repr` once per distinct bit pattern, so 0.0 and -0.0 keep
    their own strings, and gathers the strings through the inverse index.  No
    `repr` of a finite float holds a comma, quote or line end, so the body
    needs no quoting and matches `csv.writer` byte for byte; only the header,
    whose names may need quoting, goes through `csv.writer`.
    """
    step = max(1, _WRITE_BLOCK_BYTES // (8 * table.m))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(table.attribute_names)
        for lo in range(0, table.n, step):
            block = table.values[lo : lo + step]
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            columns = text[inverse.reshape(block.shape).T].tolist()
            fh.write("\r\n".join(map(",".join, zip(*columns))))
            fh.write("\r\n")


def to_payload(obj) -> dict:
    """Nested dicts of an analysis dataclass, fields in declaration order.

    A field holding a dataclass is converted in turn; every other value goes
    to `json` as it is, which writes tuples as arrays and integer keys as
    their decimal strings.  An `Evidence` becomes one `RecordDistanceResult`
    payload per record, nested under `result` beside the record's row of
    each array field (the certificate's variances) when there are any.
    """
    values = {f.name: getattr(obj, f.name) for f in fields(obj)}
    columns = {k: v.tolist() for k, v in values.items() if isinstance(v, np.ndarray)}
    payload = {}
    for name, value in values.items():
        if isinstance(value, Evidence):
            payload[name] = _evidence_rows(value, columns)
        elif is_dataclass(value):
            payload[name] = to_payload(value)
        elif name not in columns:
            payload[name] = value
    return payload


def _evidence_rows(evidence: Evidence, columns: dict[str, list]) -> list[dict]:
    """Per-record payloads of an Evidence, each beside its row of every column."""
    names = [f.name for f in fields(RecordDistanceResult)]
    bounds, matches = evidence.offsets.tolist(), evidence.matches.tolist()
    rows = [
        dict(zip(names, record))
        for record in zip(
            range(1, len(evidence) + 1),
            evidence.closest_values.tolist(),
            evidence.closest_ranks.tolist(),
            [matches[a:b] for a, b in zip(bounds, bounds[1:])],
            evidence.matched_deviations.tolist(),
            evidence.distances.tolist(),
        )
    ]
    if columns:
        rows = [
            {"result": row, **dict(zip(columns, values))}
            for row, values in zip(rows, zip(*columns.values()))
        ]
    return rows


def write_report(
    obj,
    path,
    *,
    kind: str | None = None,
    seeds: Mapping[str, int] | None = None,
    disclosure: str | None = None,
    withhold_seeds: bool = False,
) -> None:
    """Serialize an analysis object to a versioned JSON report.

    Accepts an analysis dataclass carrying `report_kind`, whose payload is
    `to_payload(obj)`, or a plain mapping when `kind` is given explicitly.
    Seeds marked withheld are reported by name with a null value, so the
    report still shows what was randomized while revealing nothing; a payload
    field of the same name is nulled too.
    """
    if obj is None:
        raise EmptyReportError("nothing to report")
    if kind is None:
        kind = getattr(obj, "report_kind", None)
    if is_dataclass(obj):
        payload = to_payload(obj)
    elif isinstance(obj, Mapping):
        payload = dict(obj)
    else:
        payload = None
    if payload is None or kind is None:
        raise EmptyReportError(f"{type(obj).__name__} is not a reportable analysis")
    if not payload:
        raise EmptyReportError("analysis payload is empty")
    seed_block = None
    if seeds is not None:
        seed_block = {
            str(k): (None if withhold_seeds else int(v)) for k, v in seeds.items()
        }
        if withhold_seeds:
            payload.update((k, None) for k in seed_block if k in payload)
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "permpriv", "version": __version__},
        "kind": kind,
        "seeds": seed_block,
        "disclosure": disclosure,
        "payload": payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def read_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict) or "schema_version" not in report:
        raise InvalidSpecError(f"{path}: not a report file")
    return report


def emit_histogram(
    original: DistanceDistribution, baseline: DistanceDistribution, path
) -> None:
    """Write both distance distributions over the zero-filled union support."""
    support = sorted(set(original.frequencies) | set(baseline.frequencies))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["distance", "frequency_original", "frequency_baseline"])
        for d in support:
            writer.writerow(
                [d, repr(original.frequency(d)), repr(baseline.frequency(d))]
            )

