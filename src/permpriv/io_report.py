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
    ParseError,
    RaggedRowError,
)
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
    `float()`'s.  Every other body, and every plain one that reader refuses
    or reads with a non-finite value or a width other than the header's,
    goes through the row-by-row parser, which alone defines the accepted
    syntax and raises every cell, row and empty-file error.

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


def _read_plain(data: bytes, start: int, width: int):
    """The body from byte `start` as read by numpy's C reader, or None.

    None unless the body holds only plain numeric bytes and the reader gives
    at least one row of `width` finite values.  `loadtxt` reads the bytes in
    place, so neither a decoded nor a sliced copy of the file is made.
    """
    if not _PLAIN_BODY.fullmatch(data, start):
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


def _parse_rows(path, reader, width: int) -> list[list[float]]:
    """Parse the rest of `reader` one cell at a time with `float()`."""
    rows: list[list[float]] = []
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
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")
    return rows


def write_csv(table: MicrodataTable, path) -> None:
    """Write a table; cells use shortest-round-trip float formatting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.attribute_names)
        writer.writerows([repr(v) for v in row] for row in table.values.tolist())


class _FieldNames(dict):
    """Each type's dataclass field names in declaration order; None for other types."""

    def __missing__(self, cls: type) -> tuple[str, ...] | None:
        names = self[cls] = tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None
        return names


_FIELD_NAMES = _FieldNames()


def to_payload(obj) -> dict:
    """Nested dicts of an analysis dataclass, fields in declaration order.

    Fields holding a dataclass, or a non-empty tuple of them, are converted in
    turn; every other value goes to `json` as it is, which writes tuples as
    arrays and integer keys as their decimal strings.  Unlike
    `dataclasses.asdict`, it never copies or visits a scalar, so it stays a
    small part of writing a large certificate.
    """
    payload = {}
    for name in _FIELD_NAMES[type(obj)]:
        value = getattr(obj, name)
        if type(value) is tuple:
            if value and _FIELD_NAMES[type(value[0])] is not None:
                value = [to_payload(v) for v in value]
        elif _FIELD_NAMES[type(value)] is not None:
            value = to_payload(value)
        payload[name] = value
    return payload


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
    if _FIELD_NAMES[type(obj)] is not None:
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

