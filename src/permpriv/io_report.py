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
import itertools
import json
import math
import os
import re
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from ._version import __version__
from .baseline import DistanceDistribution
from .errors import (
    EmptyInputError,
    EmptyReportError,
    EncodingError,
    MalformedCsvError,
    ParseError,
    RaggedRowError,
)
from .grid import cuts
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
    data = read_utf8(path)
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


def read_utf8(path) -> bytes:
    """The bytes of the file at `path`; EncodingError unless they are UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():  # ASCII is UTF-8; other bytes are decoded once to check
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(
                f"{path}: file is not UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
    return data


# one line and its end, split where `open(newline="")` splits: \r\n, \r or \n
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
# the bytes of cells and line ends, all a plain body may hold
_PLAIN_BYTES = b"0123456789+-.eE,\r\n"
_NOT_LINE_END = re.compile(rb"[^\r\n]")
# bytes of body the plain check translates at a time: `translate` allocates
# an output as long as its input, so one call over the body would hold a
# second copy of the file, while blocks under malloc's 128 KiB mmap
# threshold reuse small buffers
_PLAIN_BLOCK = 1 << 16
_SEPARATOR = re.compile(rb"[,\r\n]")


def _read_plain(data: bytes, start: int, width: int):
    """The body from byte `start` as read by numpy's C reader, or None.

    None unless the body holds only plain numeric bytes and the reader gives
    at least one row of `width` finite values.  `loadtxt` reads the bytes in
    place, so neither a decoded nor a sliced copy of the file is made.
    """
    if not _is_plain(data, start) or not _cells_fit(data, start):
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


def _is_plain(data: bytes, start: int) -> bool:
    """Whether the body from byte `start` holds a cell byte and only plain bytes."""
    return _NOT_LINE_END.search(data, start) is not None and not any(
        data[i : i + _PLAIN_BLOCK].translate(None, _PLAIN_BYTES)
        for i in range(start, len(data), _PLAIN_BLOCK)
    )


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


# Bytes of cells, at 8 per cell, one block of a written table or of a
# report's per-record rows may hold.  A block's strings and text take about
# 40 times that, so writing either grows peak memory by 5-7 MiB whatever its
# number of rows.
_WRITE_BLOCK_BYTES = 1 << 17


def write_csv(table: MicrodataTable, path) -> None:
    """Write a table, one float64 column per attribute, by `write_columns`."""
    write_columns(path, table.attribute_names, table.values.T)


def write_columns(path, header, columns) -> None:
    """Write a CSV of a header row and equal-length int64 or float64 columns.

    Rows go out in blocks of at most _WRITE_BLOCK_BYTES of cells, 8 bytes a
    cell.  Each run of adjacent columns of one dtype is stacked and spelled
    by one `_spell` per block, so a value the run's columns share is spelled
    once; ints as integers and finite floats by shortest round-trip `repr`.
    Neither needs quoting, so only the header goes through `csv.writer`, and
    the body matches its bytes.
    """
    runs = [list(run) for _, run in itertools.groupby(columns, key=lambda c: c.dtype)]
    step = max(1, _WRITE_BLOCK_BYTES // (8 * len(columns)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(columns[0]), step):
            cells = [t for run in runs for t in _spell(np.stack([c[lo : lo + step] for c in run]))]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


@dataclass(frozen=True, eq=False)
class _Rows:
    """A long array in a report payload, written by `_write_rows` in blocks.

    `ends[i]` counts the cells of items 0 .. i.  `spell(a, b, pad)` gives the
    texts that, joined by "," + pad, spell items a .. b - 1 as
    `json.dumps(indent=2)` spells them after `pad`, a line break and indent.
    """

    ends: np.ndarray
    spell: Callable[[int, int, str], Iterable[str]]


# A marker costs about what json's encoder spends on 16 to 64 items, so
# shorter tuples, such as a record's m closest ranks, stay with json.
_ITEMS_MIN = 32


def to_payload(obj) -> dict:
    """Nested dicts of an analysis dataclass, fields in declaration order.

    A field holding a dataclass is converted in turn.  An `Evidence`, with
    the dataclass's array fields as its side columns, and a tuple of at least
    _ITEMS_MIN plain ints or as many strings (a linkage's targets or
    classes), become `_Rows` that `write_report` writes in blocks.  Every
    other value goes to the writer as it is, which writes tuples as arrays
    and integer keys as their decimal strings, and refuses an array.
    """
    values = {f.name: getattr(obj, f.name) for f in fields(obj)}
    evidence = any(isinstance(v, Evidence) for v in values.values())
    columns = {k: v for k, v in values.items() if evidence and isinstance(v, np.ndarray)}
    payload = {}
    for name, value in values.items():
        if isinstance(value, Evidence):
            payload[name] = _evidence_rows(value, columns)
        elif is_dataclass(value):
            payload[name] = to_payload(value)
        elif isinstance(value, tuple) and len(value) >= _ITEMS_MIN and (
            {*map(type, value)} in ({int}, {str})
        ):
            payload[name] = _item_rows(value)
        elif name not in columns:
            payload[name] = value
    return payload


def _evidence_rows(evidence: Evidence, columns: dict[str, np.ndarray]) -> _Rows:
    """One `RecordDistanceResult` per record, beside its row of each side column
    (the certificate's variances) under `result` when there are any.

    The layout of a row, by `json.dumps(indent=2)`, is split at its slots
    once; a block is one text, joined from those pieces and its spelled
    columns interleaved, with match sets joined from the CSR slices.
    """
    q, m = evidence.closest_values.shape
    names = [f.name for f in fields(RecordDistanceResult)]
    record = dict(zip(names, ["%s", ["%s"] * m, ["%s"] * m, ["%s"], ["%s"] * m, "%s"]))
    if columns:
        record = {"result": record, **{k: ["%s"] * v.shape[1] for k, v in columns.items()}}
    pieces = json.dumps(record, indent=2).split('"%s"')
    offsets = evidence.offsets

    def spell(a: int, b: int, pad: str):
        between_matches = "," + pad + "  " * (2 + bool(columns))
        bounds = (offsets[a : b + 1] - offsets[a]).tolist()
        matches = _spell(evidence.matches[offsets[a] : offsets[b]])
        cells = [
            list(map(str, range(a + 1, b + 1))),
            *_spell(evidence.closest_values[a:b].T),
            *_spell(evidence.closest_ranks[a:b].T),
            [between_matches.join(matches[x:y]) for x, y in zip(bounds, bounds[1:])],
            *_spell(evidence.matched_deviations[a:b].T),
            _spell(evidence.distances[a:b]),
            *(text for v in columns.values() for text in _spell(v[a:b].T)),
        ]
        *literal, last = (piece.replace("\n", pad) for piece in pieces)
        step = 2 * len(cells)
        parts = [text for piece in literal for text in (piece, "")] * (b - a)
        parts[step::step] = [last + "," + pad + literal[0]] * (b - a - 1)
        for i, column in enumerate(cells):
            parts[2 * i + 1 :: step] = column
        return ["".join(parts) + last]

    width = 2 + 3 * m + sum(v.shape[1] for v in columns.values())
    return _Rows(width * np.arange(1, q + 1) + offsets[1:], spell)


def _item_rows(values: tuple) -> _Rows:
    """A tuple of ints or of strings as rows of one cell each: an int spelled
    by `repr`, as `json` spells it, each distinct string once by `json.dumps`."""
    spell = {v: json.dumps(v) for v in set(values)}.get if isinstance(values[0], str) else repr
    return _Rows(np.arange(1, len(values) + 1), lambda a, b, pad: map(spell, values[a:b]))


def write_report(
    obj,
    path,
    *,
    seeds: Mapping[str, int] | None = None,
    disclosure: str | None = None,
    withhold_seeds: bool = False,
) -> None:
    """Serialize an analysis dataclass to a versioned JSON report.

    The report's kind is `obj.report_kind` and its payload `to_payload(obj)`;
    anything but a dataclass with a `report_kind` raises EmptyReportError.
    Seeds marked withheld are reported by name with a null value, so the
    report still shows what was randomized while revealing nothing; a payload
    field of the same name is nulled too.  The bytes are those of
    `json.dump(report, fh, indent=2)` and a final newline, but every `_Rows`
    of the payload (per-record evidence and long tuples) is written by
    `_write_rows` in blocks, so memory does not grow with it.
    """
    kind = getattr(obj, "report_kind", None)
    if kind is None or not is_dataclass(obj):
        raise EmptyReportError(f"{type(obj).__name__} is not a reportable analysis")
    payload = to_payload(obj)
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
    # json lays out the envelope and spells every key and scalar; each _Rows
    # leaves a random marker, which no other string equals, where its rows
    # go, as deep as the marker's line is indented
    marker, deferred = f"rows {os.urandom(16).hex()}", []

    def defer(value):
        if not isinstance(value, _Rows):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        deferred.append(value)
        return marker

    parts = json.dumps(report, indent=2, default=defer).split(json.dumps(marker))
    with open(path, "w", encoding="utf-8") as fh:
        for before, rows in zip(parts, deferred):
            fh.write(before)
            line = before[before.rfind("\n") + 1 :]
            _write_rows(fh, rows, (len(line) - len(line.lstrip(" "))) // 2)
        fh.write(parts[-1])
        fh.write("\n")


def _write_rows(fh, rows: _Rows, level: int) -> None:
    """Write an array of rows, `level` containers deep, as `json` would.

    Rows go out in blocks (`cuts`) of at most _WRITE_BLOCK_BYTES of cells,
    8 bytes a cell, and at least one row; one `write` per block.
    """
    pad = "\n" + "  " * (level + 1)
    fh.write("[")
    for a, b in cuts(rows.ends, _WRITE_BLOCK_BYTES // 8):
        fh.write(("," if a else "") + pad + ("," + pad).join(rows.spell(a, b, pad)))
    fh.write("\n" + "  " * level + "]" if rows.ends.size else "]")


def _spell(values: np.ndarray) -> list:
    """`values.tolist()`, each int64 or float64 as `json.dumps` spells it, once per bit pattern."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(values.dtype)
    text = np.array(list(map(repr, distinct.tolist())), dtype=object)
    for i in np.flatnonzero(~np.isfinite(distinct)).tolist():
        text[i] = json.dumps(distinct[i].item())
    return text[inverse.reshape(values.shape)].tolist()


def emit_histogram(
    original: DistanceDistribution, baseline: DistanceDistribution, path
) -> None:
    """Write both distance distributions over the zero-filled union support."""
    support = sorted(set(original.frequencies) | set(baseline.frequencies))
    frequencies = [np.array([dist.frequency(d) for d in support]) for dist in (original, baseline)]
    header = ["distance", "frequency_original", "frequency_baseline"]
    write_columns(path, header, [np.array(support, dtype=np.int64), *frequencies])

