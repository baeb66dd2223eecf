"""Partition diagrams: set partitions of two rows of k vertices.

Vertex convention shared by every module: top vertex i (1-based) maps to
index i-1, bottom vertex i' maps to k+i-1. Multiplication stacks one diagram
above another, closes under union-find on 3k vertices, and reports how many
connected components were confined to the glued middle row; the caller turns
that count into a monomial coefficient.

A mirror-symmetric diagram is also described by its `RowView`: the
partition of one row plus the set of blocks that run through to the other
row. The Gram, poset and role-swap stages work on that view instead of on
products, and so does `stirling.coarser_profile_counts`. A plain diagram is
the flip-fixed slice of a doubled one: its flip fixes every point, so every
block counts as flip-fixed, in the view and in the whole-diagram oracle
`reduction.diagram_coarser_or_equal` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .partitions import SetPartition, UnionFind

__all__ = ["PartitionDiagram", "RowView"]


@dataclass(frozen=True)
class RowView:
    """A mirror-symmetric diagram as one row partition plus its through blocks.

    `blocks` holds the row blocks as bitmasks over the row's points, ordered
    by least point; `through` lists the positions in `blocks` of the blocks
    that run to the other row, ascending; `fixed[i]` says whether block i is
    mapped to itself by the e/g flip. Every block of a plain diagram counts
    as flip-fixed: plain diagrams are the flip-fixed slice of the doubled
    ones.
    """

    blocks: tuple[int, ...]
    through: tuple[int, ...]
    fixed: tuple[bool, ...]

    @classmethod
    def of(cls, part: SetPartition, row: int, doubled: bool) -> "RowView":
        """View of a partition of two rows of `row` points each.

        Raises ValueError unless the bottom row mirrors the top row and every
        through block joins a row block to its own mirror image. For doubled
        diagrams the flip exchanges the points 2i and 2i+1 of a row.
        """
        top, bottom, through = set(), set(), set()
        for block in part.blocks:
            t = b = 0
            for v in block:
                if v < row:
                    t |= 1 << v
                else:
                    b |= 1 << (v - row)
            if t and b:
                if t != b:
                    raise ValueError("diagram is not mirror-symmetric")
                through.add(t)
            if t:
                top.add(t)
            if b:
                bottom.add(b)
        if top != bottom:
            raise ValueError("diagram is not mirror-symmetric")
        blocks = tuple(sorted(top, key=lambda m: m & -m))
        if doubled:
            even = sum(1 << v for v in range(0, row, 2))
            fixed = tuple(((m & even) << 1 | (m >> 1) & even) == m for m in blocks)
        else:
            fixed = (True,) * len(blocks)
        return cls(blocks, tuple(i for i, m in enumerate(blocks) if m in through), fixed)

    @cached_property
    def through_blocks(self) -> frozenset[int]:
        """The through blocks, as bitmasks."""
        return frozenset(self.blocks[i] for i in self.through)

    @cached_property
    def through_mask(self) -> int:
        """The union of the through blocks, as one bitmask."""
        return sum(self.through_blocks)


class PartitionDiagram:
    """A set partition of {0..2k-1} viewed as a two-row diagram."""

    __slots__ = ("k", "part", "_view")

    def __init__(self, k: int, part: SetPartition):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if part.n != 2 * k:
            raise ValueError(f"expected ground size {2 * k}, got {part.n}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "part", part)

    def __setattr__(self, name, value):
        raise AttributeError("PartitionDiagram is immutable")

    # -- structure -----------------------------------------------------------

    def propagating_number(self) -> int:
        """Number of blocks meeting both the top and the bottom row."""
        k = self.k
        return sum(1 for b in self.part.blocks if b[0] < k <= b[-1])

    def row_view(self) -> RowView:
        """Row partition and through blocks, computed once per instance."""
        try:
            return self._view
        except AttributeError:
            view = RowView.of(self.part, self.k, doubled=False)
            object.__setattr__(self, "_view", view)
            return view

    def multiply(self, other: "PartitionDiagram") -> tuple["PartitionDiagram", int]:
        """Stack self above other; return (resulting diagram, middle loops)."""
        if self.k != other.k:
            raise ValueError(f"k mismatch: {self.k} != {other.k}")
        k = self.k
        uf = UnionFind(3 * k)
        # self occupies rows 0..k-1 (top) and k..2k-1 (middle), other occupies
        # k..2k-1 (middle) and 2k..3k-1 (bottom): shift other's indices by k.
        for block in self.part.blocks:
            first = block[0]
            for v in block[1:]:
                uf.union(first, v)
        for block in other.part.blocks:
            first = block[0] + k
            for v in block[1:]:
                uf.union(first, v + k)
        touched_outside = set()
        for v in range(k):
            touched_outside.add(uf.find(v))
        for v in range(2 * k, 3 * k):
            touched_outside.add(uf.find(v))
        middle_roots = {uf.find(v) for v in range(k, 2 * k)}
        loops = len(middle_roots - touched_outside)
        groups: dict[int, list[int]] = {}
        for v in range(k):
            groups.setdefault(uf.find(v), []).append(v)
        for v in range(2 * k, 3 * k):
            groups.setdefault(uf.find(v), []).append(v - k)
        result = PartitionDiagram(k, SetPartition(2 * k, groups.values()))
        return result, loops

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        k = self.k

        def tok(v: int) -> str:
            return str(v + 1) if v < k else f"{v - k + 1}'"

        return "[" + "|".join("{" + ",".join(tok(v) for v in b) + "}" for b in self.part.blocks) + "]"

    def __repr__(self) -> str:
        return f"PartitionDiagram({self.k}, {self.part!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartitionDiagram)
            and self.k == other.k
            and self.part == other.part
        )

    def __hash__(self) -> int:
        return hash((self.k, self.part))
