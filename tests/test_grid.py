"""The block cutter that every budgeted loop shares, against a brute-force cutter."""

import numpy as np
import pytest

from permpriv.grid import cuts


def brute_cuts(sizes: list[int], cap: int) -> list[tuple[int, int]]:
    """Blocks grown one item at a time; an item opens a new block when the
    open block's total would pass `cap` with it."""
    blocks, total = [], 0
    for i, size in enumerate(sizes):
        if blocks and total + size <= cap:
            blocks[-1] = (blocks[-1][0], i + 1)
            total += size
        else:
            blocks.append((i, i + 1))
            total = size
    return blocks


def check(sizes, cap: int) -> list[tuple[int, int]]:
    sizes = np.asarray(sizes, dtype=np.int64)
    got = list(cuts(np.cumsum(sizes), cap))
    assert got == brute_cuts(sizes.tolist(), cap)
    # in order, and every item in exactly one block
    assert [i for a, b in got for i in range(a, b)] == list(range(sizes.size))
    for a, b in got:
        total = int(sizes[a:b].sum())
        assert total <= cap or b - a == 1
        if b < sizes.size:  # maximal: the next item would pass cap
            assert total + sizes[b] > cap
    return got


def test_no_items_give_no_blocks():
    assert check([], 5) == []


def test_a_cap_of_one_cuts_every_item_alone():
    assert check([1, 1, 1], 1) == [(0, 1), (1, 2), (2, 3)]
    assert check([3, 1, 1, 5], 1) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_an_item_larger_than_the_cap_is_a_block_of_its_own():
    assert check([2, 10, 2, 2], 4) == [(0, 1), (1, 2), (2, 4)]
    assert check([10], 4) == [(0, 1)]
    assert check([2, 2, 10], 4) == [(0, 2), (2, 3)]


def test_a_block_fills_exactly_to_the_cap():
    assert check([1, 2, 3, 2, 1], 3) == [(0, 2), (2, 3), (3, 5)]


@pytest.mark.parametrize("cap", [0, 1, 5, 17, 100])
def test_random_sizes(cap):
    rng = np.random.default_rng(cap)
    for n in range(60):
        check(rng.integers(1, 20, size=n), cap)
        check(rng.integers(0, 4, size=n), cap)  # zero-size items join a block
