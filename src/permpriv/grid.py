"""The permutation-distance search, a Chebyshev nearest-neighbour search over ranks.

`scan` reads every record, in record blocks; `Grid.search` walks the cells
near each query once for its distance and match set (the cell method of
Bentley, Stanat & Williams 1977).  `cuts` cuts budgeted loops into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bytes one search block may hold, 8 * m for each entry: a (query, grid
# slice) pair, or a candidate row with its m rank deviations from its query's
# center, whatever width `Grid.layout` pads a row to.  Bounds the search's
# peak memory whatever n and q; the grid's runs bound a slice to about
# n ** (1 - 1 / p) rows.  A window-variance gather holds 8 bytes a value.
_BLOCK_BYTES = 1 << 19

# A search of at most this many queries is thin: `scan` reads it in record
# blocks, faster than building the grid (the README's crossover table).
_THIN_QUERIES = 6


def cuts(ends: np.ndarray, cap: int):
    """Yield (a, b) for each block of items a .. b - 1, in order.

    `ends` is the running total of the items' sizes.  Each block takes the
    most items whose sizes sum to at most `cap`, or one larger item.
    """
    a = start = 0
    while a < ends.size:
        b = max(a + 1, int(np.searchsorted(ends, start + cap, side="right")))
        yield a, b
        a, start = b, ends[b - 1]


def _pruned(kept: list, best: np.ndarray, n: int, cap: int = -1) -> list:
    """(keys, deviations) parts of (query, record) pairs, key query * n + record,
    as one part of those at their query's `best`, once the parts after the
    first hold more than `cap` pairs.  At most 2m records lie at any one
    deviation from a center, one rank either side of it on each axis."""
    if sum(dev.size for _, dev in kept[1:]) <= cap:
        return kept
    key, dev = (np.concatenate(part) for part in zip(*kept))
    at = dev == best[key // n]
    return [(key[at], dev[at])]


def _csr(keys: np.ndarray, q: int, n: int) -> tuple:
    """Offsets and ascending 1-based records: the match sets of keys query * n + record."""
    keys.sort()
    offsets = np.searchsorted(keys, np.arange(q + 1) * n)
    np.remainder(keys, n, out=keys)
    keys += 1
    return offsets, keys


def scan(ranks: np.ndarray, centers: np.ndarray) -> tuple:
    """(distances, offsets, matches) of (q, m) centers against every record.

    `ranks` (n, m) is read a column at a time in blocks of
    _BLOCK_BYTES // (8 * m * q) records, all n where they fit.  A block's
    deviations are written in place into one (q, rows) int64 array, the first
    attribute's straight into it and each other's through a second one into
    the running maximum.  A distance is the minimum over the blocks; the
    records at or under the running minima are held, off a (q, rows) mask,
    and pruned to them after each block.
    """
    q, (n, m) = centers.shape[0], ranks.shape
    step = max(1, _BLOCK_BYTES // (8 * m * q)) if q else n
    best = np.full(q, n, dtype=np.int64)  # past every deviation
    held = (np.empty(0, dtype=np.int64),) * 2
    for a in range(0, n, step):
        dev = np.empty((q, min(step, n - a)), dtype=np.int64)
        gap = np.empty_like(dev) if m > 1 else dev
        for j in range(m):
            out = gap if j else dev
            np.subtract(ranks[a : a + step, j], centers[:, j, None], out=out)
            np.abs(out, out=out)
            if j:
                np.maximum(dev, gap, out=dev)
        del gap, out
        np.minimum(best, dev.min(axis=1), out=best)
        width, hit = dev.shape[1], dev <= best[:, None]
        del dev
        # keys of records a .. a + width - 1, held at their query's best
        hit = np.flatnonzero(hit)
        query = hit // width
        [held] = _pruned([held, (hit + query * (n - width) + a, best[query])], best, n)
    return (best, *_csr(held[0], q, n))


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
    slice of grid rows.  The rank rows are laid out by `layout`; `read` and
    `boxes` take centers as `pad` returns them, padded once by `search`.
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
        """(p, k): the first p = min(m, 4) rank axes, each cut into the most k
        runs with k**p <= n, so the grid never has more cells than records."""
        p = min(m, 4)
        # the integer p-th root or one more, also where the float root of an
        # exact power falls just short (64 ** (1 / 3) < 4)
        k = round(n ** (1 / p))
        return p, k - (k**p > n)

    @staticmethod
    def layout(n: int, m: int) -> tuple[np.dtype, int]:
        """(dtype, width) of the rank rows: int32 while every rank fits, else
        int64, and m columns padded with zeros to the next power of two, so
        a gather of 4, 8 or 16-byte rows takes numpy's fixed-size copy."""
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
        # run i holds 0-based ranks from -(-i * n // k); 0 and n move to -n and
        # 2n, so an edge of the grid lies farther than any deviation reaches
        fence = -(-np.arange(k + 1) * n // k)
        fence[[0, -1]] = -n, 2 * n
        # cast and padded in record order, then gathered: no int64 copy is made
        rows = np.take(_padded(ranks, *cls.layout(n, m)), records, axis=0)
        return cls(p, k, m, fence, starts, records, rows)

    def pad(self, centers: np.ndarray) -> np.ndarray:
        """(q, m) 1-based centers as (q, width) rows laid out as the grid's."""
        return _padded(centers, self.ranks.dtype, self.ranks.shape[1])

    def read(self, query: np.ndarray, first: np.ndarray, size: np.ndarray, centers: np.ndarray):
        """Yield (query, grid rows, deviations) for the rows of many grid slices.

        Slice i holds grid rows first[i] .. first[i] + size[i] - 1, read for
        query[i], empty or not.  The rows go out in chunks of at most
        _BLOCK_BYTES (or one slice), each with its query and its largest rank
        deviation from that query's center over the m attributes, in the rows'
        dtype: empty arrays for a chunk of empty slices.
        """
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
        outside its box on any gridded axis, past n at an edge of the grid.
        Each yield holds the whole queries in the slice `queries`, at most
        _BLOCK_BYTES of (query, slice) pairs (or one query).  Bounds and gaps
        are taken for cap // p queries at a time, no more entries than a block.
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

    def search(self, centers: np.ndarray, match_sets: bool = True) -> tuple:
        """(distances, offsets, matches) as `scan`, or (distances,) alone if not `match_sets`.

        Reads boxes of cells around each center (`boxes`): the cells within
        half a run, then within min(best - 1, 2 * gap), best the smallest
        deviation so far (in the rows' dtype) and gap the distance to the
        nearest rank outside the box on a gridded axis, which every unseen
        record lies beyond; O(log n) boxes until best <= gap.  Rows read at
        or under the running best are held, so a query leaving at best < gap
        holds its match set; one at best = gap first reads the box of radius
        best.  A search for distances alone leaves at best = gap too.
        """
        centers = self.pad(centers)
        n, q, cap = self.records.size, centers.shape[0], max(1, _BLOCK_BYTES // (self.m * 8))
        best = np.full(q, n, dtype=self.ranks.dtype)
        final = np.full_like(best, -1)  # a query's best once it leaves
        found = [np.empty(0, dtype=np.int64)]
        active = np.arange(q)
        radius = np.broadcast_to(n // (2 * self.k), active.shape)
        while active.size:
            keep, grow = [], []
            for block, slices, gap in self.boxes(centers, radius):
                held = [(found[0],) * 2]
                for owner, rows, dev in self.read(*slices, centers):
                    owner = active[owner]
                    np.minimum.at(best, owner, dev)
                    if match_sets:
                        hit = dev <= best[owner]
                        held.append((owner[hit] * n + self.records[rows[hit]], dev[hit]))
                        held = _pruned(held, best, n, cap)
                near = best[active[block]]
                stay = near >= gap if match_sets else near > gap
                if match_sets:  # the rows held for a query that stays are read again
                    final[active[block]] = np.where(stay, -1, near)
                    found.append(_pruned(held, final, n)[0][0])
                stay = np.flatnonzero(stay)
                near, gap = near[stay], gap[stay]
                keep.append(stay + block.start)
                grow.append(np.minimum(near - (near > gap), 2 * gap))
            keep = np.concatenate(keep)
            active, centers, radius = active[keep], centers[keep], np.concatenate(grow)
        found = _csr(np.concatenate(found), q, n) if match_sets else ()
        return (best.astype(np.int64), *found)
