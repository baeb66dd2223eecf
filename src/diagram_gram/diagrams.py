"""Partition diagrams: set partitions of two rows of k vertices.

Vertex convention shared by every module: top vertex i (1-based) maps to
index i-1, bottom vertex i' maps to k+i-1. A diagram is stored as the
bitmasks of its blocks over both rows, ordered by least point, and has no
other form: equality, hashing, the propagating number, the row view,
multiplication and the whole-diagram oracles in `reduction` read those
masks. A mask becomes its points in O(its popcount), so a diagram of
thousands of points renders in linear time.

Multiplication stacks one diagram above another: the lower diagram's masks
are shifted by one row, so that its top row lands on the upper one's bottom
row, and masks that meet are merged. A merged mask that lies wholly in that glued
middle row is a loop; the caller turns the loop count into a monomial
coefficient.

A mirror-symmetric diagram is also described by its `RowView`: the
partition of one row plus the set of blocks that run through to the other
row. The Gram, poset and role-swap stages work on that view instead of on
products, and so does `stirling.coarser_profile_counts`. A basis diagram
is built from its view (`Diagram.from_view`), which the enumeration
assembles from the row configuration; any other diagram computes its view
from its masks on first read.

The e/g flip belongs to the diagram's class: `Diagram.flip` maps a mask to
its image, the identity on a plain diagram and the exchange of the points
2i and 2i+1 on a doubled one. A plain diagram is the flip-fixed slice of a
doubled one: its flip fixes every point, so every block counts as
flip-fixed, in the view, in `reduction.block_types` and in
`stirling.coarser_profile_counts` alike, and none of them asks which kind
of diagram it reads.
"""

from __future__ import annotations

from functools import cached_property

__all__ = ["Diagram", "PartitionDiagram", "RowView", "points"]


def points(mask: int) -> tuple[int, ...]:
    """The points of a bitmask, ascending, in O(popcount) big-int steps."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class RowView:
    """A mirror-symmetric diagram as one row partition plus its through blocks.

    `blocks` holds the row blocks as bitmasks over the row's points, ordered
    by least point; `through` lists the positions in `blocks` of the blocks
    that run to the other row, ascending; `fixed[i]` says whether block i is
    mapped to itself by the diagram's `Diagram.flip`, which fixes every
    block of a plain diagram: plain diagrams are the flip-fixed slice of
    the doubled ones. Views are immutable and compare by value.
    """

    def __init__(self, blocks: tuple[int, ...], through: tuple[int, ...], fixed: tuple[bool, ...]):
        self.__dict__.update(blocks=blocks, through=through, fixed=fixed)

    def __setattr__(self, name, value):
        raise AttributeError("RowView is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is RowView and (self.blocks, self.through, self.fixed) == (
            other.blocks, other.through, other.fixed
        )

    def __hash__(self) -> int:
        return hash((self.blocks, self.through, self.fixed))

    def __repr__(self) -> str:
        return f"RowView(blocks={self.blocks!r}, through={self.through!r}, fixed={self.fixed!r})"

    @cached_property
    def through_blocks(self) -> frozenset[int]:
        """The through blocks, as bitmasks."""
        return frozenset(self.blocks[i] for i in self.through)

    @cached_property
    def through_mask(self) -> int:
        """The union of the through blocks, as one bitmask."""
        return sum(self.through_blocks)


class Diagram:
    """A set partition of two rows of `per_fibre * k` points each, stored as
    `masks`, the bitmasks of its blocks ordered by least point.

    `PartitionDiagram` has one point per fibre in a row and `Z2Diagram` two,
    which `flip` exchanges. A diagram is built from its masks (`from_masks`)
    or from its row view (`from_view`). Instances are immutable; two
    diagrams are equal when they are of one class and have the same k and
    masks.
    """

    __slots__ = ("k", "masks", "_view")
    per_fibre = 1

    @classmethod
    def from_masks(cls, k: int, masks: tuple[int, ...]):
        """The diagram whose blocks are `masks`. The caller vouches that they
        partition the points and are ordered by least point; `Z2Diagram`
        still checks its flip."""
        diagram = object.__new__(cls)
        diagram._set(k, masks)
        return diagram

    @classmethod
    def from_view(cls, k: int, view: RowView):
        """The mirror-symmetric diagram that `view` describes, keeping the view.

        Its blocks holding top points come in the view's order, each a row
        block with its mirror image when it runs through; the bottom
        images of the other row blocks follow, in the same order."""
        row = cls.per_fibre * k
        through = set(view.through)
        top = [m | m << row if i in through else m for i, m in enumerate(view.blocks)]
        bottom = [m << row for i, m in enumerate(view.blocks) if i not in through]
        diagram = cls.from_masks(k, (*top, *bottom))
        object.__setattr__(diagram, "_view", view)
        return diagram

    def _set(self, k: int, masks: tuple[int, ...]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "masks", masks)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- structure -----------------------------------------------------------

    @property
    def row_size(self) -> int:
        """The number of points in a row, `per_fibre * k`."""
        return self.per_fibre * self.k

    def flip(self, mask: int) -> int:
        """The image of the points `mask` under the e/g flip: the identity
        on a plain diagram, whose flip fixes every point."""
        return mask

    def propagating_number(self) -> int:
        """Number of blocks meeting both the top and the bottom row."""
        row = self.row_size
        top = (1 << row) - 1
        return sum(1 for m in self.masks if m & top and m >> row)

    def row_view(self) -> RowView:
        """Row partition, through blocks and flip-fixed flags, computed from
        the masks once per instance unless the diagram was built from them.

        Raises ValueError unless the bottom row mirrors the top row and every
        through block joins a row block to its own mirror image. A block is
        flip-fixed when `flip` maps it to itself.
        """
        try:
            return self._view
        except AttributeError:
            pass
        row = self.row_size
        low = (1 << row) - 1
        # a block holding top points has its least point on top, so the
        # row blocks come ordered by least point
        blocks, bottom, through = [], set(), []
        for m in self.masks:
            t, b = m & low, m >> row
            if t and b:
                if t != b:
                    raise ValueError("diagram is not mirror-symmetric")
                through.append(len(blocks))
            if t:
                blocks.append(t)
            if b:
                bottom.add(b)
        if bottom != set(blocks):
            raise ValueError("diagram is not mirror-symmetric")
        fixed = tuple(self.flip(m) == m for m in blocks)
        view = RowView(tuple(blocks), tuple(through), fixed)
        object.__setattr__(self, "_view", view)
        return view

    # -- algebra -------------------------------------------------------------

    def multiply(self, other: Diagram) -> tuple[Diagram, int]:
        """Stack self above other; return (resulting diagram, middle loops).

        Both are diagrams of one class. A `Z2Diagram` multiplies as the
        partition diagram on two rows of 2k points with the same masks. The
        product is built in the factors' class without the flip check of
        `from_masks`: stacking commutes with the e/g flip, so a product of
        flip-stable diagrams is flip-stable."""
        if type(other) is not type(self):
            raise TypeError("cannot multiply diagrams of different families")
        if self.k != other.k:
            raise ValueError(f"k mismatch: {self.k} != {other.k}")
        row = self.row_size
        top = (1 << row) - 1
        middle = top << row
        # self holds the top row 0..row-1 and the middle row row..2row-1;
        # other, shifted by row, holds the middle and the bottom row
        # 2row..3row-1. A block that misses the middle row is a block of
        # the product as it stands.
        masks = [m for m in self.masks if not m & middle]
        merged = [m for m in self.masks if m & middle]
        for block in other.masks:
            if not block & top:
                masks.append(block)  # other's bottom row is the product's
                continue
            # the merged blocks are disjoint, so one pass gathers those
            # that meet this block
            block <<= row
            rest = []
            for c in merged:
                if c & block:
                    block |= c
                else:
                    rest.append(c)
            rest.append(block)
            merged = rest
        loops = 0
        for c in merged:
            outer = c & top | (c >> row) & middle  # the bottom row moves to row..2row-1
            if outer:
                masks.append(outer)
            else:
                loops += 1
        masks.sort(key=lambda m: m & -m)
        product = object.__new__(type(self))
        Diagram._set(product, self.k, tuple(masks))
        return product, loops

    # -- identity and rendering ----------------------------------------------

    def __repr__(self) -> str:
        return f"{type(self).__name__}.from_masks({self.k}, {self.masks!r})"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.k == other.k and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.k, self.masks))


class PartitionDiagram(Diagram):
    """A set partition of {0..2k-1} viewed as a two-row diagram."""

    __slots__ = ()

    def __str__(self) -> str:
        k = self.k

        def tok(v: int) -> str:
            return str(v + 1) if v < k else f"{v - k + 1}'"

        return "[" + "|".join(
            "{" + ",".join(map(tok, points(m))) + "}" for m in self.masks
        ) + "]"
