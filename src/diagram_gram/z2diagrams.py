"""Diagrams on doubled vertices, stable under the global two-element flip.

Each of the k fibers of a row carries two points, tagged e and g. Index
convention: top (i, e) -> 2(i-1), (i, g) -> 2(i-1)+1 for i in 1..k; bottom
vertices get the same layout shifted by 2k. Flipping e and g on every vertex
is index XOR 1; a diagram is admissible only when that flip maps the
partition to itself, which is validated eagerly at construction.

Such a diagram embeds as an ordinary partition diagram on 2k+2k vertices,
and multiplication is inherited through that embedding. The pipeline reads
a diagram through its `RowView`: row blocks, through blocks and flip-fixed
flags. A plain partition diagram is the flip-fixed slice of these (its flip
fixes every point), so the oracles in `reduction` and `stirling` walk both
kinds alike. The whole-diagram class counts and the signed membership test,
which the enumeration is checked against, are oracles in the tests.
"""

from __future__ import annotations

from .diagrams import PartitionDiagram, RowView
from .partitions import SetPartition

__all__ = ["Z2Diagram", "top_index"]


def top_index(fiber: int, sign: int) -> int:
    """Index of top vertex (fiber, sign) with fiber 1-based, sign 0=e, 1=g."""
    return 2 * (fiber - 1) + sign


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

    def propagating_number(self) -> int:
        """Propagating number of the embedded 2k-diagram (equals 2*s1+s2)."""
        return self.as_partition_diagram().propagating_number()

    # -- projections ---------------------------------------------------------

    def as_partition_diagram(self) -> PartitionDiagram:
        """The same partition viewed as a diagram on two rows of 2k vertices."""
        return PartitionDiagram(2 * self.k, self.part)

    def row_view(self) -> RowView:
        """Row partition of the 2k row points, through blocks and flip-fixed
        flags, computed once per instance."""
        try:
            return self._view
        except AttributeError:
            view = RowView.of(self.part, 2 * self.k, doubled=True)
            object.__setattr__(self, "_view", view)
            return view

    # -- algebra -------------------------------------------------------------

    def multiply(self, other: "Z2Diagram") -> tuple["Z2Diagram", int]:
        if self.k != other.k:
            raise ValueError(f"k mismatch: {self.k} != {other.k}")
        prod, loops = self.as_partition_diagram().multiply(other.as_partition_diagram())
        return Z2Diagram(self.k, prod.part), loops

    # -- rendering -----------------------------------------------------------

    def _token(self, v: int) -> str:
        half = 2 * self.k
        prime = "" if v < half else "'"
        w = v if v < half else v - half
        return f"{w // 2 + 1}{prime}{'e' if w % 2 == 0 else 'g'}"

    def __str__(self) -> str:
        return "{" + "|".join(",".join(self._token(v) for v in b) for b in self.part.blocks) + "}"

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
