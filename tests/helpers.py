"""Shared builders and independent oracles for the test suite.

The oracle functions below are deliberate reimplementations in plain Python
loops, `oracle_closest_ranks` in exact rationals, apart from `brute_search`,
the full numpy scan the package replaced with its projection search,
`oracle_window_variances`, the per-window `ndarray.var` loop the package
replaced with a batched kernel, `enumerate_baseline`, the n**m table the
package's distance transform replaced, `dilation_baseline_counts`, the
per-distance dilation that transform replaced, `oracle_reverse_map`, the
per-column reverse map the package replaced with one ranking through
`Release`, `oracle_load_csv`, the cell-by-cell CSV reader the package keeps
only for bodies numpy's reader does not take, `oracle_write_csv`, the
per-cell `csv.writer` the package replaced with one `repr` per distinct
value, `oracle_emit_histogram`, the per-row `csv.writer` the package
replaced with its typed-column writer, and `oracle_write_report`, the
per-record dicts through `json.dump(indent=2)` the package replaced with a
row-block writer.  They share no code with the package, so agreement
between the two routes is meaningful evidence rather than a tautology.
"""

import collections
import csv
import dataclasses
import functools
import json
import math
import os
import re
import tempfile
import types
import typing
from fractions import Fraction

import numpy as np
import pytest

from permpriv import __version__, grid
from permpriv.errors import EmptyInputError, ParseError, RaggedRowError
from permpriv.io_report import SCHEMA_VERSION, write_report
from permpriv.privacy import Evidence, RecordDistanceResult
from permpriv.table import MicrodataTable, Role


# ---------------------------------------------------------------------------
# random input builders

# Added to the seeds of the property and oracle suites that draw through
# `seeded`.  0 by default, so each run draws the same cases; any other value
# draws fresh ones, and a failure reruns under the same value.
SEED_OFFSET = int(os.environ.get("PERMPRIV_TEST_SEED_OFFSET", "0"))


def seeded(seed):
    """A generator for case `seed`, moved by `SEED_OFFSET`."""
    return np.random.default_rng(SEED_OFFSET + seed)


def random_table(rng, n, m, role=Role.ORIGINAL, scale=100.0):
    values = rng.normal(0.0, scale, size=(n, m))
    names = tuple(f"a{j + 1}" for j in range(m))
    return MicrodataTable(values, names, role=role)


def random_pair(rng, n, m, sigma=1.0, scale=100.0):
    """An original table plus a noisy anonymized sibling."""
    x = random_table(rng, n, m, scale=scale)
    y = MicrodataTable(
        x.values + rng.normal(0.0, sigma, size=(n, m)),
        x.attribute_names,
        role=Role.ANONYMIZED,
    )
    return x, y


def random_integer_table(rng, n, m, role=Role.ORIGINAL, low=0, high=10_000):
    # distinct integer values per column: exact float arithmetic, no ties
    cols = [
        rng.choice(np.arange(low, high), size=n, replace=False).astype(float)
        for _ in range(m)
    ]
    names = tuple(f"a{j + 1}" for j in range(m))
    return MicrodataTable(np.column_stack(cols), names, role=role)


def random_tied_table(rng, n, m, role=Role.ORIGINAL, levels=4):
    """Integer cells drawn from `levels` values, so most cells repeat in their column."""
    values = rng.integers(0, levels, size=(n, m)).astype(float)
    names = tuple(f"a{j + 1}" for j in range(m))
    return MicrodataTable(values, names, role=role)


def match_sets(evidence):
    """Each record's match set as a tuple, read through its one-record view."""
    return tuple(r.matched_indices for r in evidence)


def shuffle_rows(rng, table, role=Role.ANONYMIZED):
    """Row permutation of a table; returns (shuffled table, truth mapping).

    truth[i] is the 1-based row of the shuffled table holding original
    record i+1.
    """
    perm = rng.permutation(table.n)
    values = table.values[perm]
    truth = np.empty(table.n, dtype=int)
    truth[perm] = np.arange(1, table.n + 1)
    return MicrodataTable(values, table.attribute_names, role=role), tuple(
        int(t) for t in truth
    )


# ---------------------------------------------------------------------------
# oracles (pure python, loop-based)


def oracle_ranks(column):
    """1-based ranks for a tie-free column; rank 1 is the smallest value."""
    column = list(column)
    assert len(set(column)) == len(column), "oracle requires tie-free data"
    order = sorted(range(len(column)), key=lambda i: column[i])
    ranks = [0] * len(column)
    for r, i in enumerate(order, start=1):
        ranks[i] = r
    return ranks


def oracle_closest(column, ranks, value):
    """(closest value, its rank); distance ties go to the smaller value.

    Among records tied at that value, the rank next to the position where
    `value` would be inserted is taken; on tie-free data this is the only
    rank of the closest value.
    """
    insert_at = 1 + sum(1 for y in column if y < value)
    best = None
    for y, r in zip(column, ranks):
        key = (abs(y - value), y, abs(r - insert_at))
        if best is None or key < best[0]:
            best = (key, y, r)
    return best[1], best[2]


def oracle_closest_ranks(values_by_rank, xs):
    """1-based rank of the value nearest to each query, by a scan of an ascending column.

    Distances are exact rationals.  A query equidistant from two values takes
    the smaller value.  Among equal values it takes the first rank when the
    query is at most that value and the last otherwise: the rank next to
    where the query would be inserted.
    """
    column = [Fraction(float(y)) for y in values_by_rank]
    out = []
    for x in map(float, xs):
        best = None
        for r, y in enumerate(column, start=1):
            key = (abs(y - Fraction(x)), y, r if x <= y else -r)
            if best is None or key < best[0]:
                best = (key, r)
        out.append(best[1])
    return out


def oracle_distance(record, table_values, rank_matrix):
    """(distance, matched 1-based rows, per-attribute closest ranks)."""
    n = len(table_values)
    m = len(record)
    centers = []
    for j in range(m):
        col = [row[j] for row in table_values]
        rks = [row[j] for row in rank_matrix]
        _, r = oracle_closest(col, rks, record[j])
        centers.append(r)
    best_d = None
    matches = []
    for p in range(n):
        dev = max(abs(rank_matrix[p][j] - centers[j]) for j in range(m))
        if best_d is None or dev < best_d:
            best_d, matches = dev, [p + 1]
        elif dev == best_d:
            matches.append(p + 1)
    return best_d, tuple(matches), tuple(centers)


def brute_search(values, rank_matrix, queries, block=64):
    """Full min-max scan of every query against every record, vectorised.

    Returns (distances, closest ranks, match sets) under the same rules as
    `oracle_distance`, in blocks of `block` queries; fast enough for a few
    thousand records and queries.
    """
    values = np.asarray(values, dtype=float)
    ranks = np.asarray(rank_matrix, dtype=np.int64)
    queries = np.asarray(queries, dtype=float)
    m = values.shape[1]
    distances, centers, matches = [np.empty(0, np.int64)], [np.empty((0, m), np.int64)], []
    for lo in range(0, len(queries), block):
        x = queries[lo : lo + block]
        c = np.empty(x.shape, dtype=np.int64)
        for j in range(values.shape[1]):
            y, r = values[None, :, j], ranks[None, :, j]
            gap = np.abs(y - x[:, j, None])
            near = gap == gap.min(axis=1, keepdims=True)
            near &= y == np.where(near, y, np.inf).min(axis=1, keepdims=True)
            insert_at = 1 + (y < x[:, j, None]).sum(axis=1, keepdims=True)
            pick = np.where(near, np.abs(r - insert_at), ranks.shape[0] + 1).argmin(axis=1)
            c[:, j] = ranks[pick, j]
        dev = np.abs(ranks[None, :, :] - c[:, None, :]).max(axis=2)
        d = dev.min(axis=1)
        distances.append(d)
        centers.append(c)
        matches.extend(tuple((np.flatnonzero(row == k) + 1).tolist()) for row, k in zip(dev, d))
    return np.concatenate(distances), np.concatenate(centers), matches


def search_paths(release, queries, settings):
    """[(path, evidence, distances)]: `release.search(queries)` and
    `release.distances` of the same centers, with the `grid` constants in
    each of `settings` in turn ({} keeps them), each a dict such as
    {"_BLOCK_BYTES": 64, "_THIN_QUERIES": 0}.

    `path` is the read both calls took, else the test fails: "block" (the
    one-block read, `grid.scan` within `grid._BLOCK_BYTES`), "records"
    (`grid.scan` in record blocks) or "grid".
    """
    centers = release.centers(queries)
    taken, results = [], []
    scan, walk = grid.scan, grid.Grid.search

    def scanning(ranks, rows, *args):
        fits = rows.shape[0] * ranks.size * 8 <= grid._BLOCK_BYTES
        taken.append("block" if fits else "records")
        return scan(ranks, rows, *args)

    def walking(self, *args):
        taken.append("grid")
        return walk(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid, "scan", scanning)
        patch.setattr(grid.Grid, "search", walking)
        for setting in settings:
            for name, value in setting.items():
                patch.setattr(grid, name, value)
            taken.clear()
            evidence, distances = release.search(queries), release.distances(centers)
            assert len(set(taken)) == 1, taken
            results.append((taken[0], evidence, distances))
    return results


def check_search_against_brute(release, queries):
    """The three reads of a search agree with `brute_search` on every
    `Evidence` column and on `Release.distances`, and with each other bit
    for bit.

    Each read is forced through `Release._search`'s rule: the grid with
    `grid._BLOCK_BYTES` one byte under the search's q * n * 8m (or as it is
    where it is already under) and `grid._THIN_QUERIES` under q; the record
    blocks with blocks of about n / 3 records (at least one) and q thin;
    the one-block read with at least those bytes.  Returns
    [(path, evidence)] for each.
    """
    values, ranks = release.table.values, release.profile.ranks
    distances, centers, matches = brute_search(values, ranks, queries)
    q, (n, m) = len(distances), values.shape
    closest = np.sort(values, axis=0)[centers - 1, np.arange(m)]
    deviations = np.abs(ranks[[s[0] - 1 for s in matches]] - centers).reshape(q, m)
    budget, thin, need = grid._BLOCK_BYTES, grid._THIN_QUERIES, q * n * 8 * m
    settings = {
        "grid": {"_BLOCK_BYTES": min(budget, need - 1), "_THIN_QUERIES": min(thin, q - 1)},
        "records": {
            "_BLOCK_BYTES": min(budget, need - 1, 8 * m * q * max(1, n // 3)),
            "_THIN_QUERIES": max(thin, q),
        },
        "block": {"_BLOCK_BYTES": max(budget, need), "_THIN_QUERIES": thin},
    }
    paths = search_paths(release, queries, settings.values())
    for (path, evidence, again), expected in zip(paths, settings):
        assert path == expected
        assert again.dtype == evidence.distances.dtype == np.int64
        assert again.tolist() == evidence.distances.tolist() == distances.tolist()
        assert evidence.closest_ranks.tolist() == centers.tolist()
        assert evidence.closest_values.tolist() == closest.tolist()
        assert evidence.matched_deviations.tolist() == deviations.tolist()
        offsets = evidence.offsets
        assert offsets.shape == (q + 1,) and offsets[0] == 0
        assert offsets[-1] == evidence.matches.size
        assert np.all(np.diff(offsets) > 0)  # no set is empty
        assert list(match_sets(evidence)) == matches
    (_, first, _), *others = paths
    for _, evidence, _ in others:
        for name, column in vars(first).items():
            other = getattr(evidence, name)
            assert column.dtype == other.dtype and column.shape == other.shape, name
            assert column.tobytes() == other.tobytes(), name
    return [(path, evidence) for path, evidence, _ in paths]


def enumerate_baseline(source):
    """The exhaustive baseline table: all n**m combinations of column values.

    Record k takes, on attribute j, the source value at digit j of k written
    in base n, first attribute slowest.
    """
    n, m = source.n, source.m
    picks = np.indices((n,) * m).reshape(m, -1)
    values = np.column_stack([source.column(j)[p] for j, p in enumerate(picks)])
    return MicrodataTable(values, source.attribute_names, role=Role.BASELINE)


def oracle_baseline_frequencies(source, release_values, rank_matrix):
    """Exhaustive baseline frequencies by enumeration and a full scan.

    Every enumerated record is searched with `brute_search`; each count is
    divided by n**m as exact Python ints, the way the package tabulates.
    """
    records = enumerate_baseline(source)
    distances, _, _ = brute_search(release_values, rank_matrix, records.values, block=512)
    counts = collections.Counter(distances.tolist())
    return {d: counts[d] / records.n for d in sorted(counts)}


def dilation_baseline_counts(source, release):
    """Exhaustive baseline counts {distance: records} by unit dilations of the rank points.

    The rank points are marked on a bool grid of n**m cells and grown by one
    chessboard step per distance, two shifted ORs per axis; each step's newly
    covered weight, prod_j w_j[c_j] from an int64 weight grid, is the count at
    that distance.  The package replaced this loop with a closed-form
    transform over all axes but the first.  Closest ranks come from
    `Release.centers`, as in the package.
    """
    n, m = source.n, source.m
    total = n**m
    centers = release.centers(source.values) - 1
    weight = functools.reduce(
        np.multiply.outer, [np.bincount(c, minlength=n) for c in centers.T]
    )
    covered = np.zeros((n,) * m, dtype=bool)
    covered[tuple((release.profile.ranks - 1).T)] = True
    counts = {}
    seen = 0
    for d in range(n):  # no cell lies further than n - 1 from a rank point
        now = int(weight.sum(where=covered))
        if now > seen:
            counts[d], seen = now - seen, now
        if seen == total:
            break
        for axis in range(m):
            grid = np.moveaxis(covered, axis, 0)
            grid[1:] |= grid[:-1]
            grid[:-1] |= grid[1:]
    return counts


def oracle_window_variance(column, ranks, center, d):
    """Population variance of the values whose rank is within d of center."""
    vals = [v for v, r in zip(column, ranks) if abs(r - center) <= d]
    mean = sum(vals) / len(vals)
    return sum((v - mean) ** 2 for v in vals) / len(vals)


def oracle_window_variances(values_by_rank, centers, d):
    """(q, m) window variances, one `ndarray.var` call per record and attribute.

    The per-window loop `Release.window_variances` batches.  Its bits are the
    reference: the batched kernel must reproduce them exactly, not within a
    tolerance, because report bytes depend on them.  `d` is one radius or one
    per row; windows are clipped to [1, n].
    """
    n = len(values_by_rank[0])
    centers = np.asarray(centers, dtype=np.int64)
    radii = np.broadcast_to(np.asarray(d, dtype=np.int64), centers.shape[:1])
    out = np.empty(centers.shape)
    for i, (row, r) in enumerate(zip(centers.tolist(), radii.tolist())):
        for j, c in enumerate(row):
            lo, hi = max(c - r, 1), min(c + r, n)
            out[i, j] = values_by_rank[j][lo - 1 : hi].var()
    return out


def oracle_tied_ranks(column, tie_seed):
    """Seeded ranks by a per-value walk over the sorted column.

    Each run of equal values is shuffled in turn with one generator, the
    definition `compute_ranks` vectorises.
    """
    col = np.asarray(column, dtype=float)
    order = np.argsort(col, kind="stable")
    values = col[order]
    rng = np.random.default_rng(tie_seed)
    start = 0
    for stop in range(1, col.size + 1):
        if stop == col.size or values[stop] != values[start]:
            if stop - start > 1:
                rng.shuffle(order[start:stop])
            start = stop
    ranks = np.empty(col.size, dtype=np.int64)
    ranks[order] = np.arange(1, col.size + 1)
    return ranks


def oracle_reverse_map(original, anonymized, tie_seed):
    """One reverse-mapped column: each anonymized rank's original value.

    The per-column routine `reverse_map_table` replaced, with its two
    postconditions, ranked by `oracle_tied_ranks` under tie_seed as given.
    """
    x = np.asarray(original, dtype=float)
    y = np.asarray(anonymized, dtype=float)
    y_ranks = oracle_tied_ranks(y, tie_seed)
    x_sorted = np.sort(x, kind="stable")
    z = x_sorted[y_ranks - 1]
    if not np.array_equal(np.sort(z), x_sorted):
        raise AssertionError("reverse mapping did not preserve the original multiset")
    by_rank = np.argsort(y_ranks)
    if np.any(np.diff(y[by_rank]) < 0) or np.any(np.diff(z[by_rank]) < 0):
        raise AssertionError("reverse mapping did not preserve the anonymized rank order")
    return z


# at least one cell byte, and nothing but cell bytes and line ends
_PLAIN_BODY = re.compile(rb"[\r\n]*[0-9+\-.eE,][0-9+\-.eE,\r\n]*")


def oracle_plain_body(data: bytes, start: int) -> bool:
    """Whether the CSV body from byte `start` is one numpy's reader may take.

    The regex `io_report` once gated its fast reader with.
    """
    return _PLAIN_BODY.fullmatch(data, start) is not None


def oracle_load_csv(path, role: Role = Role.ORIGINAL) -> MicrodataTable:
    """Read a numeric CSV with a header row into a table.

    Cell errors carry positions: rows count data rows from 1 (the header is
    row 0 in spirit and excluded), columns count from 1.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty") from None
        names = [h.strip() for h in header]
        rows: list[list[float]] = []
        for r, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue  # ignore blank lines
            if len(row) != len(names):
                raise RaggedRowError(r, len(names), len(row))
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
    return MicrodataTable(rows, tuple(names), role=role)


def oracle_write_csv(table, path) -> None:
    """Write a table through `csv.writer`, one `repr` per cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.attribute_names)
        writer.writerows([repr(v) for v in row] for row in table.values.tolist())


def oracle_emit_histogram(original, baseline, path) -> None:
    """Write both distributions through `csv.writer`, one row and two `repr`s per distance."""
    support = sorted(set(original.frequencies) | set(baseline.frequencies))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["distance", "frequency_original", "frequency_baseline"])
        for d in support:
            writer.writerow([d, repr(original.frequency(d)), repr(baseline.frequency(d))])


def oracle_spearman(a, b):
    """Pearson correlation of tie-free ranks; no difference formula."""
    ra = np.array(oracle_ranks(a), dtype=float)
    rb = np.array(oracle_ranks(b), dtype=float)
    return float(np.corrcoef(ra, rb)[0, 1])


def oracle_total_variation(freq_a, freq_b):
    support = set(freq_a) | set(freq_b)
    return 0.5 * sum(abs(freq_a.get(d, 0.0) - freq_b.get(d, 0.0)) for d in support)


# ---------------------------------------------------------------------------
# memory


def peak_rss_mib():
    """This process's peak resident set size so far, in MiB.

    Read from VmHWM, which belongs to the process's own address space.
    `ru_maxrss` would not do for a subprocess: Linux carries it over from the
    parent across fork and exec, so a child of the test runner starts at the
    runner's peak and its growth reads 0 whatever it allocates.
    """
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\s+(\d+) kB", fh.read())[1]) / 1024


# ---------------------------------------------------------------------------
# report payloads read back


def from_payload(cls, data):
    """Rebuild an analysis dataclass from its report payload as JSON gives it back.

    The inverse of `write_report` followed by `load_report`: arrays
    become tuples again and nested payloads their dataclasses, guided by the
    field annotations.  Per-record rows become an `Evidence` again, and with
    it the array fields they carry beside the evidence.  Fields computed in
    `__post_init__` are skipped.
    """
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    columns = [name for name in names if hints[name] is np.ndarray]
    values = {}
    for name in names:
        if hints[name] is Evidence:
            rows = data[name]
            values[name] = _evidence([r["result"] for r in rows] if columns else rows)
            values.update((c, np.array([r[c] for r in rows], dtype=float)) for c in columns)
        elif name not in columns:
            values[name] = _decode(hints[name], data[name])
    return cls(**values)


def _evidence(rows):
    """An Evidence from the payloads of its records."""
    sets = [r["matched_indices"] for r in rows]
    return Evidence(
        closest_values=np.array([r["closest_values"] for r in rows], dtype=float),
        closest_ranks=np.array([r["closest_ranks"] for r in rows], dtype=np.int64),
        distances=np.array([r["distance"] for r in rows], dtype=np.int64),
        offsets=np.cumsum([0] + [len(s) for s in sets], dtype=np.int64),
        matches=np.array([i for s in sets for i in s], dtype=np.int64),
        matched_deviations=np.array([r["matched_deviations"] for r in rows], dtype=np.int64),
    )


def _decode(hint, value):
    if value is None:  # an optional part left out, such as a subject's safety
        return None
    if isinstance(hint, types.UnionType):  # `Part | None`, present
        hint = typing.get_args(hint)[0]
    if dataclasses.is_dataclass(hint):
        return from_payload(hint, value)
    if typing.get_origin(hint) is tuple:
        return tuple(_decode(typing.get_args(hint)[0], v) for v in value)
    return value


def load_report(path) -> dict:
    """A report file as the JSON object it holds."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def json_round_trip(obj):
    """An analysis written by `write_report`, read back by `load_report` and rebuilt."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        write_report(obj, path)
        return from_payload(type(obj), load_report(path)["payload"])


def report_bytes(obj, **kwargs):
    """The bytes `write_report` writes for `obj`; analyses compare by these."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        write_report(obj, path, **kwargs)
        with open(path, "rb") as fh:
            return fh.read()


# ---------------------------------------------------------------------------
# report writer oracle


def oracle_payload(obj):
    """An analysis dataclass as nested dicts, each record of an Evidence a dict.

    A field holding a dataclass is converted in turn.  Each record's payload
    is nested under `result` beside the record's row of each array field
    (the certificate's variances) when there are any.
    """
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    columns = {k: v.tolist() for k, v in values.items() if isinstance(v, np.ndarray)}
    payload = {}
    for name, value in values.items():
        if isinstance(value, Evidence):
            payload[name] = _evidence_rows(value, columns)
        elif dataclasses.is_dataclass(value):
            payload[name] = oracle_payload(value)
        elif name not in columns:
            payload[name] = value
    return payload


def _evidence_rows(evidence, columns):
    """Per-record payloads of an Evidence, each beside its row of every column."""
    names = [f.name for f in dataclasses.fields(RecordDistanceResult)]
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


def oracle_write_report(obj, path, *, seeds=None, disclosure=None, withhold_seeds=False):
    """An analysis dataclass's report as `json.dump(indent=2)` writes the whole document."""
    payload = oracle_payload(obj)
    seed_block = None
    if seeds is not None:
        seed_block = {str(k): None if withhold_seeds else int(v) for k, v in seeds.items()}
        if withhold_seeds:
            payload.update((k, None) for k in seed_block if k in payload)
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "permpriv", "version": __version__},
        "kind": obj.report_kind,
        "seeds": seed_block,
        "disclosure": disclosure,
        "payload": payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
