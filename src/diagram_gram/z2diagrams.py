"""Diagrams on doubled vertices, stable under the global two-element flip.

Each of the k fibers of a row carries two points, tagged e and g. Index
convention: top (i, e) -> 2(i-1), (i, g) -> 2(i-1)+1 for i in 1..k; bottom
vertices get the same layout shifted by 2k. Flipping e and g on every vertex
is index XOR 1; a diagram is admissible only when that flip maps the
partition to itself, which is validated eagerly at construction.

Such a diagram embeds as an ordinary partition diagram on 2k+2k vertices,
and multiplication is inherited through that embedding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .diagrams import PartitionDiagram, RowView
from .partitions import SetPartition

__all__ = ["BlockKind", "Z2Stats", "Z2Diagram", "top_index", "bottom_index"]


class BlockKind(enum.Enum):
    """Flip behaviour of a block: one of a conjugate pair, or flip-fixed."""

    E_PAIR = "e_pair"
    Z2 = "z2"


@dataclass(frozen=True)
class Z2Stats:
    """Through-class and horizontal-edge counts of a doubled diagram.

    s1 conjugate pairs of through classes, s2 flip-fixed through classes;
    r1/r2 are the top-row horizontal analogues and r1p/r2p the bottom-row
    ones. The underlying 2k-diagram always has 2*s1 + s2 through blocks.
    """

    s1: int
    s2: int
    r1: int
    r2: int
    r1p: int
    r2p: int


def top_index(fiber: int, sign: int) -> int:
    """Index of top vertex (fiber, sign) with fiber 1-based, sign 0=e, 1=g."""
    return 2 * (fiber - 1) + sign


def bottom_index(k: int, fiber: int, sign: int) -> int:
    return 2 * k + 2 * (fiber - 1) + sign


class Z2Diagram:
    """A flip-stable set partition of the 4k doubled vertices."""

    __slots__ = ("k", "part", "_view")

    def __init__(self, k: int, part: SetPartition):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if part.n != 4 * k:
            raise ValueError(f"expected ground size {4 * k}, got {part.n}")
        index = part.block_index
        for block in part.blocks:
            flipped = index[block[0] ^ 1]
            if any(index[v ^ 1] != flipped for v in block[1:]):
                raise ValueError("partition is not stable under the e/g flip")
            if flipped == index[block[0]] and len(block) % 2 != 0:
                raise ValueError("flip-fixed block of odd size")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "part", part)

    def __setattr__(self, name, value):
        raise AttributeError("Z2Diagram is immutable")

    @classmethod
    def identity(cls, k: int) -> "Z2Diagram":
        blocks = [[v, v + 2 * k] for v in range(2 * k)]
        return cls(k, SetPartition(4 * k, blocks))

    # -- block taxonomy ------------------------------------------------------

    def classify_block(self, block: tuple[int, ...]) -> BlockKind:
        if block not in self.part.blocks:
            raise ValueError(f"block {block} does not belong to this diagram")
        members = set(block)
        if all(v ^ 1 in members for v in block):
            return BlockKind.Z2
        return BlockKind.E_PAIR

    def conjugate_block(self, block: tuple[int, ...]) -> tuple[int, ...]:
        return self.part.block_of(block[0] ^ 1)

    def _block_rows(self, block: tuple[int, ...]) -> tuple[bool, bool]:
        half = 2 * self.k
        return block[0] < half, block[-1] >= half

    def stats(self) -> Z2Stats:
        half = 2 * self.k
        s1 = s2 = r1 = r2 = r1p = r2p = 0
        for block in self.part.blocks:
            top, bottom = self._block_rows(block)
            if self.classify_block(block) is BlockKind.Z2:
                if top and bottom:
                    s2 += 1
                elif top:
                    r2 += 1
                else:
                    r2p += 1
            else:
                # conjugate pairs are counted once, on their e-side block
                if self.conjugate_block(block) < block:
                    continue
                if top and bottom:
                    s1 += 1
                elif top:
                    r1 += 1
                else:
                    r1p += 1
        return Z2Stats(s1, s2, r1, r2, r1p, r2p)

    def propagating_number(self) -> int:
        """Propagating number of the embedded 2k-diagram (equals 2*s1+s2)."""
        return self.as_partition_diagram().propagating_number()

    # -- projections ---------------------------------------------------------

    def as_partition_diagram(self) -> PartitionDiagram:
        """The same partition viewed as a diagram on two rows of 2k vertices."""
        return PartitionDiagram(2 * self.k, self.part)

    def project(self) -> PartitionDiagram:
        """Collapse each fiber, giving a plain diagram on two rows of k."""
        k = self.k
        # blocks sharing a fiber are flip-conjugates with equal fiber sets,
        # so deduplicating fiber sets is the whole quotient; v // 2 maps the
        # bottom index 2k+2(i-1)+s to k+i-1, the bottom-row convention.
        fiber_sets = {frozenset(v // 2 for v in block) for block in self.part.blocks}
        return PartitionDiagram(k, SetPartition(2 * k, [sorted(f) for f in fiber_sets]))

    def halves(self) -> tuple[SetPartition, SetPartition]:
        """Restrictions to the top and the bottom row, each on 2k points."""
        half = 2 * self.k
        return (
            self.part.restrict(range(half)),
            self.part.restrict(range(half, 2 * half)),
        )

    def row_view(self) -> RowView:
        """Row partition of the 2k row points, through blocks and flip-fixed
        flags, computed once per instance."""
        try:
            return self._view
        except AttributeError:
            view = RowView.of(self.part, 2 * self.k, doubled=True)
            object.__setattr__(self, "_view", view)
            return view

    def is_mirror_symmetric(self) -> bool:
        """True when bottom mirrors top and through blocks join identically."""
        half = 2 * self.k
        top, bottom = self.halves()
        if top != bottom:
            return False
        for block in self.part.blocks:
            has_top, has_bottom = self._block_rows(block)
            if has_top and has_bottom:
                top_part = [v for v in block if v < half]
                bottom_part = [v - half for v in block if v >= half]
                if top_part != bottom_part:
                    return False
        return True

    # -- algebra -------------------------------------------------------------

    def multiply(self, other: "Z2Diagram") -> tuple["Z2Diagram", int]:
        if self.k != other.k:
            raise ValueError(f"k mismatch: {self.k} != {other.k}")
        prod, loops = self.as_partition_diagram().multiply(other.as_partition_diagram())
        return Z2Diagram(self.k, prod.part), loops

    def is_signed_member(self) -> bool:
        """Membership test for the signed subalgebra's diagram basis.

        A diagram qualifies when, on each row, either the classes leave a
        fiber to spare or the row carries a conjugate pair of horizontal
        edges; diagrams whose through classes exhaust everything are always
        members.
        """
        st = self.stats()
        if 2 * st.s1 + st.s2 == 2 * self.k:
            return True
        base = st.s1 + st.s2
        k = self.k
        top = base + st.r1 + st.r2
        bot = base + st.r1p + st.r2p
        return (
            (top <= k - 1 and bot <= k - 1)
            or (top <= k and bot <= k - 1 and st.r1 != 0)
            or (top <= k - 1 and bot <= k and st.r1p != 0)
            or (top <= k and bot <= k and st.r1 != 0 and st.r1p != 0)
        )

    # -- rendering -----------------------------------------------------------

    def _token(self, v: int) -> str:
        half = 2 * self.k
        prime = "" if v < half else "'"
        w = v if v < half else v - half
        return f"{w // 2 + 1}{prime}{'e' if w % 2 == 0 else 'g'}"

    def __str__(self) -> str:
        return "{" + "|".join(",".join(self._token(v) for v in b) for b in self.part.blocks) + "}"

    def to_token_blocks(self) -> list[list[str]]:
        return [[self._token(v) for v in b] for b in self.part.blocks]

    def __repr__(self) -> str:
        return f"Z2Diagram({self.k}, {self.part!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Z2Diagram)
            and self.k == other.k
            and self.part == other.part
        )

    def __hash__(self) -> int:
        return hash((self.k, self.part))
