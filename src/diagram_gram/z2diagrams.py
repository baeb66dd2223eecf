"""Diagrams on doubled vertices, stable under the global two-element flip.

Each of the k fibers of a row carries two points, tagged e and g. Index
convention: top (i, e) -> 2(i-1), (i, g) -> 2(i-1)+1 for i in 1..k; bottom
vertices get the same layout shifted by 2k. Flipping e and g on every vertex
is index XOR 1, which `Z2Diagram.flip` applies to a mask; a diagram is
admissible only when that flip maps its blocks to its blocks, which
`from_masks` checks on the block masks.

Such a diagram is an ordinary partition diagram on 2k+2k vertices, with
the same masks, and multiplies as one (`Diagram.multiply`). Stacking
commutes with the flip, so a product of flip-stable diagrams is
flip-stable: products skip the check, and the tests check them instead. The pipeline
reads a diagram through its `RowView`: row blocks, through blocks and
flip-fixed flags. A plain partition diagram is the
flip-fixed slice of these (its flip fixes every point), so the oracles in
`reduction` and `stirling` walk both kinds alike. The whole-diagram class
counts and the signed membership test, which the enumeration is checked
against, are oracles in the tests.
"""

from __future__ import annotations

from .diagrams import Diagram, points

__all__ = ["Z2Diagram", "top_index"]


def _even_mask(n: int) -> int:
    """The mask of the even points below the even number n: 0b0101...01."""
    return ((1 << n) - 1) // 3


def top_index(fiber: int, sign: int) -> int:
    """Index of top vertex (fiber, sign) with fiber 1-based, sign 0=e, 1=g."""
    return 2 * (fiber - 1) + sign


class Z2Diagram(Diagram):
    """A flip-stable set partition of the 4k doubled vertices."""

    __slots__ = ()
    per_fibre = 2

    def _set(self, k: int, masks: tuple[int, ...]) -> None:
        # the flip permutes the points, so it maps the blocks onto
        # themselves iff their images are the blocks; `flip` is inlined,
        # as every basis diagram passes here
        even = _even_mask(4 * k)
        if {(m & even) << 1 | (m >> 1) & even for m in masks} != set(masks):
            raise ValueError("partition is not stable under the e/g flip")
        super()._set(k, masks)

    def flip(self, mask: int) -> int:
        """The image of the points `mask` under the e/g flip, which
        exchanges the points 2i and 2i+1 of either row."""
        even = _even_mask(4 * self.k)
        return (mask & even) << 1 | (mask >> 1) & even

    # -- rendering -----------------------------------------------------------

    def _token(self, v: int) -> str:
        half = 2 * self.k
        prime = "" if v < half else "'"
        w = v if v < half else v - half
        return f"{w // 2 + 1}{prime}{'e' if w % 2 == 0 else 'g'}"

    def __str__(self) -> str:
        return "{" + "|".join(",".join(map(self._token, points(m))) for m in self.masks) + "}"
