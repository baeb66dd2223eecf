"""The walk over the set partitions of a sequence, and a union-find.

A diagram is a set partition of two rows of vertices, stored as the
bitmasks of its blocks (`diagrams`). `set_partitions` walks the groupings
of fibres that the row configurations are built from, and `UnionFind`
joins the connected components of the determinants.
"""

from __future__ import annotations

from typing import Iterator, Sequence

__all__ = ["UnionFind", "set_partitions"]


class UnionFind:
    """Array-based union-find with path compression and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, v: int) -> int:
        parent = self.parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def blocks(self) -> list[list[int]]:
        groups: dict[int, list[int]] = {}
        for v in range(len(self.parent)):
            groups.setdefault(self.find(v), []).append(v)
        return sorted(groups.values())


def set_partitions(items: Sequence, min_blocks: int = 0) -> Iterator[list[list]]:
    """All set partitions of `items` into at least `min_blocks` blocks, by
    restricted growth strings in lexicographic order.

    rgs[i] is the block of items[i], at most one more than any block before
    it. A prefix that already uses b blocks can still reach b plus the
    number of items left, so each tail is filled with the least values that
    reach `min_blocks`, and every string visited is yielded. The walk is a
    loop, so its depth does not grow with len(items).
    """
    items = list(items)
    n = len(items)
    if min_blocks > n:
        return
    if n == 0:
        yield []
        return
    rgs = [0] * n
    high = [0] * (n + 1)  # high[i] = max(rgs[:i]), for i >= 1
    start = 1
    while True:
        for i in range(start, n):
            # a value up to high[i] leaves high[i] + 1 blocks and n - i - 1 items
            rgs[i] = 0 if high[i] + n - i >= min_blocks else high[i] + 1
            high[i + 1] = max(high[i], rgs[i])
        blocks: list[list] = [[] for _ in range(high[n] + 1)]
        for item, b in zip(items, rgs):
            blocks[b].append(item)
        yield blocks
        # the successor raises the last entry that can grow, then refills
        start = n - 1
        while start > 0 and rgs[start] > high[start]:
            start -= 1
        if start == 0:
            return
        rgs[start] += 1
        high[start + 1] = max(high[start], rgs[start])
        start += 1
