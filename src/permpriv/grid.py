"""The permutation-distance search, a Chebyshev nearest-neighbour search over ranks.

`scan` reads a search whose q * n candidate rows fit one block in one
pass.  `Grid` runs both passes of a larger search, `distances` and then
`match_sets`, with the cell method of Bentley, Stanat & Williams 1977.
`cuts` cuts the search's and the report writer's budgeted loops into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bytes one search block may hold, 8 * m for each entry: a (query, grid
# slice) pair, or a candidate row with its m rank deviations from its query's
# center, whatever width `Grid.layout` pads a row to.  A search whose q * n
# candidate rows fit one block is read whole by `scan`.  Bounds the search's
# peak memory whatever n and the number of queries; the grid's runs bound a
# slice to about n ** (1 - 1 / p) rows.
# A window-variance gather, from one run of equal widths, holds 8 bytes a value.
_BLOCK_BYTES = 1 << 19


def cuts(ends: np.ndarray, cap: int):
    """Yield (a, b) for each block of items a .. b - 1, in order.

    `ends` is the running total of the items' sizes, so item i spans
    ends[i - 1] .. ends[i] and item 0 starts at 0.  Each block takes the
    most items whose sizes sum to at most `cap`, or one item when that item
    alone is larger.
    """
    a = start = 0
    while a < ends.size:
        b = max(a + 1, int(np.searchsorted(ends, start + cap, side="right")))
        yield a, b
        a, start = b, ends[b - 1]


def scan(ranks: np.ndarray, centers: np.ndarray, match_sets: bool = True) -> tuple:
    """(distances,), or (distances, offsets, matches), of (q, m) centers against every record.

    `ranks` is the release's (n, m) rank matrix, read a column at a time,
    and the outputs are those of `Grid.distances` and `Grid.match_sets`.
    Each (query, record) deviation is written in place into one (q, n)
    int64 array, the first attribute's straight into it and each other's
    through a second one into the running maximum: q * n * 8 bytes at
    m = 1, twice that from m = 2, within the q * n * 8m the caller keeps
    under _BLOCK_BYTES.  The match sets are read off a (q, n) mask.
    """
    q, (n, m) = centers.shape[0], ranks.shape
    dev = np.empty((q, n), dtype=np.int64)
    gap = np.empty_like(dev) if m > 1 else dev
    for j in range(m):
        out = gap if j else dev
        np.subtract(ranks[:, j], centers[:, j, None], out=out)
        np.abs(out, out=out)
        if j:
            np.maximum(dev, gap, out=dev)
    del gap
    distances = dev.min(axis=1)
    if not match_sets:
        return (distances,)
    hit = dev == distances[:, None]
    del dev
    offsets = np.zeros(q + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(hit, axis=1), out=offsets[1:])
    matches = np.flatnonzero(hit)  # row-major: ascending within each query
    matches %= n
    matches += 1
    return distances, offsets, matches


def _padded(matrix: np.ndarray, dtype: np.dtype, width: int) -> np.ndarray:
    """A (q, m) integer matrix as rows of `Grid.layout`: cast, then zeros after column m."""
    out = np.empty((matrix.shape[0], width), dtype)
    out[:, matrix.shape[1] :] = 0
    out[:, : matrix.shape[1]] = matrix
    return out


@dataclass(frozen=True, eq=False)
class Grid:
    """A release's records in CSR order by cell of a uniform grid over ranks.

    Only the first p = min(m, 4) rank axes are gridded, each cut into k runs
    of about n / k ranks (`shape`).  Cells are numbered with the last gridded
    axis fastest, so each row of cells along that axis is one contiguous
    slice of grid rows.  The rank rows are laid out by `layout`; every
    method that takes centers takes them as `pad` returns them, so a search
    pads its centers once for both passes.
    """

    p: int
    k: int
    m: int
    fence: np.ndarray  # (k + 1,) first 0-based rank of each run; the two ends moved out
    starts: np.ndarray  # (k**p + 1,) first grid row of each cell, then n
    records: np.ndarray  # (n,) 0-based record held by each grid row
    ranks: np.ndarray  # (n, width) rank vector held by each grid row, then zeros

    @staticmethod
    def shape(n: int, m: int) -> tuple[int, int]:
        """(p, k): the first p = min(m, 4) rank axes, each cut into k runs.

        k is the most runs with k**p <= n, so the grid never has more cells
        than records.
        """
        p = min(m, 4)
        # the integer p-th root or one more, also where the float root of an
        # exact power falls just short (64 ** (1 / 3) < 4)
        k = round(n ** (1 / p))
        return p, k - (k**p > n)

    @staticmethod
    def layout(n: int, m: int) -> tuple[np.dtype, int]:
        """(dtype, width) of the rank rows: int32 while every rank fits, else
        int64, and m columns padded with zeros to the next power of two.

        A row of 4, 8 or 16 bytes takes numpy's fixed-size copy when the
        search gathers rows; m = 3 and m = 4 both give 16-byte rows.
        """
        return np.dtype(np.int32 if n < 2**31 else np.int64), 1 << (m - 1).bit_length()

    @classmethod
    def of(cls, ranks: np.ndarray) -> Grid:
        n, m = ranks.shape
        p, k = cls.shape(n, m)
        cell = np.zeros(n, dtype=np.intp)
        for j in range(p):
            cell *= k
            cell += (ranks[:, j] - 1) * k // n
        # the order within a cell is free: match sets are sorted afterwards
        records = np.argsort(cell)
        starts = np.zeros(k**p + 1, dtype=np.intp)
        np.cumsum(np.bincount(cell, minlength=k**p), out=starts[1:])
        del cell
        # run i holds 0-based ranks -(-i * n // k) up to the next run's first;
        # 0 and n move to -n and 2n, so an edge of the grid lies farther from
        # any center than any deviation reaches
        fence = -(-np.arange(k + 1) * n // k)
        fence[[0, -1]] = -n, 2 * n
        # cast and padded in record order, then gathered once in grid order,
        # so no int64 copy of the gathered rows is made
        rows = np.take(_padded(ranks, *cls.layout(n, m)), records, axis=0)
        return cls(p, k, m, fence, starts, records, rows)

    def pad(self, centers: np.ndarray) -> np.ndarray:
        """(q, m) 1-based centers as (q, width) rows laid out as the grid's."""
        return _padded(centers, self.ranks.dtype, self.ranks.shape[1])

    def read(self, query: np.ndarray, first: np.ndarray, size: np.ndarray, centers: np.ndarray):
        """Yield (query, grid rows, deviations) for the rows of many grid slices.

        Slice i holds grid rows first[i] .. first[i] + size[i] - 1, read for
        query[i] with center centers[query[i]].  The rows go out in chunks
        of at most _BLOCK_BYTES (or one slice), each row with its query and
        its largest rank deviation from that center over the m attributes, in
        the rows' dtype.
        """
        keep = size > 0
        query, first, size = query[keep], first[keep], size[keep]
        ends = np.cumsum(size)
        for a, b in cuts(ends, max(1, _BLOCK_BYTES // (self.m * 8))):
            sz = size[a:b]
            base = ends[a] - sz[0]
            rows = np.arange(base, ends[b - 1]) + np.repeat(first[a:b] - (ends[a:b] - sz), sz)
            owner = np.repeat(query[a:b], sz)
            gaps = np.take(self.ranks, rows, axis=0)
            gaps -= np.take(centers, owner, axis=0)
            np.abs(gaps, out=gaps)
            # column by column: a max over a short last axis is several times slower
            dev = gaps[:, 0].copy()
            for gap in gaps.T[1 : self.m]:
                np.maximum(dev, gap, out=dev)
            yield owner, rows, dev

    def boxes(self, centers: np.ndarray, radius: np.ndarray):
        """Yield (queries, slices, gap) for the box of cells covering centers +- radius.

        A query's box is one slice of grid rows per cell of its first p - 1
        gridded axes; `slices` are (query, first, size) as `read` takes them.
        `gap` is each query's distance from its center to the nearest rank
        outside its box on any gridded axis; past an edge of the grid it
        exceeds n, which no deviation reaches.  Each yield holds the whole
        queries in the slice `queries`, at most _BLOCK_BYTES of (query, slice)
        pairs (or one query).  Bounds and gaps are taken for cap // p queries
        at a time, so each of their arrays holds at most as many entries as a
        block of pairs.
        """
        p, k, n, fence = self.p, self.k, self.starts[-1], self.fence
        cap = max(1, _BLOCK_BYTES // (self.m * 8))
        step = max(1, cap // p)
        for start in range(0, radius.size, step):
            c = centers[start : start + step, :p]
            r = radius[start : start + step, None]
            lo = (np.maximum(c - r, 1) - 1) * k // n
            hi = (np.minimum(c + r, n) - 1) * k // n
            gap = np.minimum(c - fence[lo], fence[hi + 1] + 1 - c).min(axis=1)
            width = hi - lo + 1
            corner = lo @ k ** np.arange(p - 1, -1, -1)  # each box's first cell
            count = width[:, :-1].prod(axis=1)
            ends = np.cumsum(count)
            begin = ends - count
            for a, b in cuts(ends, cap):
                query = np.repeat(np.arange(a, b), count[a:b])
                # slice t of a box runs along its last axis; t counts in mixed
                # radix over the first p - 1, the last of them fastest
                t = np.arange(begin[a], ends[b - 1]) - begin[query]
                cell, scale = corner[query], k
                for j in range(p - 2, 0, -1):
                    t, part = np.divmod(t, width[query, j])
                    cell += part * scale
                    scale *= k
                cell += t * scale
                first = self.starts[cell]
                size = self.starts[cell + width[query, -1]] - first
                del t, cell  # freed before the caller reads the block
                query += start
                yield slice(start + a, start + b), (query, first, size), gap[a:b]

    def distances(self, centers: np.ndarray) -> np.ndarray:
        """(q,) min-max rank deviation for each center row from `pad`.

        Reads whole boxes of cells around each query's center (`boxes`):
        first the cells within half a run of it, then every cell within
        min(best - 1, 2 * gap), where best is the smallest deviation found
        so far and gap the distance from the center to the nearest rank
        outside the last box on any gridded axis.  Every unseen record lies
        outside the box on some gridded axis, so a query leaves once
        best <= gap.  Otherwise the next box reaches best - 1, after which it
        leaves, or at least twice as far as the last, so a query reads
        O(log n) boxes.  The minima are kept in the rows' dtype, so
        `np.minimum.at` mixes no types, and returned as int64.
        """
        n = self.records.size
        best = np.full(centers.shape[0], n, dtype=self.ranks.dtype)
        active = np.arange(centers.shape[0])
        radius = np.broadcast_to(n // (2 * self.k), active.shape)
        while active.size:
            keep, grow = [], []
            for block, slices, gap in self.boxes(centers, radius):
                for owner, _, dev in self.read(*slices, centers):
                    np.minimum.at(best, active[owner], dev)
                near = best[active[block]]
                stay = np.flatnonzero(near > gap)
                keep.append(stay + block.start)
                grow.append(np.minimum(near[stay] - 1, 2 * gap[stay]))
            keep = np.concatenate(keep)
            active, centers, radius = active[keep], centers[keep], np.concatenate(grow)
        return best.astype(np.int64)

    def match_sets(self, centers: np.ndarray, distances: np.ndarray):
        """Match sets in CSR form: offsets (q + 1,) and ascending 1-based records.

        A record at distance d lies within d of the center on every axis, so
        the box of cells that covers each center +- d on the gridded axes
        holds every match.  Each block of whole queries from `boxes` is
        sorted by (query, record) as it is read.
        """
        n = self.records.size
        parts = [np.empty(0, dtype=np.int64)]
        offsets = np.zeros(distances.size + 1, dtype=np.int64)
        for _, slices, _ in self.boxes(centers, distances):
            keys = [np.empty(0, dtype=np.int64)]
            for owner, rows, dev in self.read(*slices, centers):
                hit = dev == distances[owner]
                keys.append(owner[hit] * n + self.records[rows[hit]])
            key = np.sort(np.concatenate(keys))
            owner = key // n
            np.add.at(offsets, owner + 1, 1)
            parts.append(key - owner * n + 1)
        return np.cumsum(offsets, out=offsets), np.concatenate(parts)
