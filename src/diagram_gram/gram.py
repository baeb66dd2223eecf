"""Basis enumeration and Gram matrices for the three diagram algebras.

The matrix rows are the mirror-symmetric diagrams with a prescribed
through-class profile, ordered by (weighted edge count, plain edge count,
shape, canonical encoding). An entry is the monomial x**loops of the product
of its row and column diagrams when that product keeps the full through
count, and the zero polynomial otherwise.

The entries are read off row partitions, not computed as products. Each
basis diagram is a row partition P plus a set of through blocks (its
`RowView`). Stacking u on v glues u's bottom row P_u to v's top row P_v, so
the middle row becomes the join of P_u and P_v. The product keeps all
`target` through blocks iff every join block holds as many through blocks
of u as of v, and that number is 0 or 1; the loops are then the join blocks
holding none, #join - target of them. `build_gram` therefore computes one
join per pair of distinct row partitions. `PartitionDiagram.multiply` is
not used here; the tests and `verify` compare these entries against it.

A `GramMatrix` stores its entries in this form: `exponents[u][v]` is the
loop count e of the entry x**e, or None for a zero entry. The coarsening
poset and the congruence in `reduction` read that grid directly. The
`Poly` view `GramMatrix.entries` is rendered only when read, by the CLI
output, the determinants and the oracles.

The algebra tag ("partition", "z2" or "signed") names a `Family` in
`families.FAMILIES`, which holds the profile window, the row
configurations and the map of plain profiles into doubled coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .families import FAMILIES, Family, profile_of
from .polynomials import Poly, phi_z2
from .stirling import binomial, stirling2

__all__ = [
    "ALGEBRAS",
    "WindowError",
    "ResourceGuardError",
    "DiagramKey",
    "GramMatrix",
    "enumerate_diagrams",
    "standard_diagram",
    "build_gram",
    "count_row_configs",
    "projected_dimension",
    "fibre_permutation",
]

ALGEBRAS = tuple(FAMILIES)

DEFAULT_GUARD = 2000


class WindowError(ValueError):
    """Parameters outside the validity window of the requested algebra."""


class ResourceGuardError(RuntimeError):
    """Projected matrix dimension exceeds the configured guard."""


@dataclass(frozen=True)
class DiagramKey:
    """Position of a diagram in the matrix ordering.

    `alpha` is the tuple of weakly decreasing part tuples describing class
    sizes per role: four parts for the doubled algebras (paired through,
    fixed through, paired horizontal, fixed horizontal), two parts for the
    plain partition algebra (through, horizontal). `i` is the 1-based ordinal
    within the (alpha, r1, r2) cell. Plain diagrams store their edge count in
    r1 with r2 == 0.
    """

    i: int
    alpha: tuple[tuple[int, ...], ...]
    r1: int
    r2: int

    def sort_key(self):
        return (
            2 * self.r1 + self.r2,
            self.r1 + self.r2,
            alpha_sort_key(self.alpha),
            self.i,
        )


def alpha_sort_key(alpha) -> tuple[int, ...]:
    # larger leading parts first, matching the published cell order
    return tuple(-p for part in alpha for p in part)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Square monomial matrix over an ordered diagram basis.

    `exponents[u][v]` is e for the entry x**e, or None for a zero entry.
    For the plain partition algebra the profile is stored as s1 == s,
    s2 == 0. A matrix hashes and compares by identity, so the stages that
    read it (`reduction.coarsening_poset`) can be cached per matrix.
    """

    algebra: str
    k: int
    s1: int
    s2: int
    keys: tuple[DiagramKey, ...]
    diagrams: tuple
    exponents: tuple[tuple[int | None, ...], ...]

    def dimension(self) -> int:
        return len(self.keys)

    @cached_property
    def entries(self) -> tuple[tuple[Poly, ...], ...]:
        """The entries as `Poly`s, one shared instance per exponent.

        Built on first read, for output and for the oracles; the reduction
        reads `exponents` only.
        """
        polys = {
            e: Poly.zero() if e is None else Poly.monomial(e)
            for e in set().union(*self.exponents)
        }
        return tuple(tuple(map(polys.__getitem__, row)) for row in self.exponents)

    @property
    def family(self) -> Family:
        return FAMILIES[self.algebra]

    def through_count(self) -> int:
        """Propagating number preserved by nonzero entries."""
        return self.family.through_count(self.s1, self.s2)

    def doubled(self, key: DiagramKey) -> tuple[int, int, int, int]:
        """The profile of `key`'s cell, (s1, s2, r1, r2), in doubled coordinates."""
        return self.family.to_doubled(self.s1, self.s2, key.r1, key.r2)

    def diagonal_degree(self, key: DiagramKey) -> int:
        """Degree of the diagonal entry x**loops at `key`."""
        _, _, r1, r2 = self.doubled(key)
        return 2 * r1 + r2

    def phi(self, key: DiagramKey) -> Poly:
        """Named product polynomial on the reduced diagonal at `key`."""
        return phi_z2(*self.doubled(key))


# -- validity windows ----------------------------------------------------------


def check_window(algebra: str, k: int, s1: int, s2: int = 0) -> Family:
    """The algebra's `Family`, once (s1, s2) is one of its profiles at k."""
    family = FAMILIES.get(algebra)
    if family is None:
        raise WindowError(f"unknown algebra {algebra!r}, expected one of {ALGEBRAS}")
    if k < 1:
        raise WindowError(f"k must be at least 1, got {k}")
    if not family.has_profile(k, s1, s2):
        raise WindowError(
            f"profile ({s1}, {s2}) is outside the {algebra} window {family.window} at k={k}"
        )
    return family


# -- enumeration -----------------------------------------------------------------


@lru_cache(maxsize=None)
def enumerate_diagrams(algebra: str, k: int, s1: int, s2: int = 0, guard: int = DEFAULT_GUARD):
    """Ordered basis: tuple of (DiagramKey, diagram) for the given profile."""
    family = check_window(algebra, k, s1, s2)
    dim = projected_dimension(algebra, k, s1, s2, cap=guard)
    if dim > guard:
        raise ResourceGuardError(
            f"projected dimension at least {dim} exceeds guard {guard} "
            f"for {algebra} k={k} profile ({s1}, {s2})"
        )
    rows = []
    for units in family.configs(k, s1, s2):
        _, _, r1, r2 = profile_of(units)
        if family.row_ok(k, s1, s2, r1, r2):
            rows.append((DiagramKey(0, family.alpha(units), r1, r2), family.assemble(k, units)))
    rows.sort(key=lambda row: (row[0].sort_key(), row[1].part.blocks))
    out = []
    for _, cell in itertools.groupby(rows, lambda row: (row[0].alpha, row[0].r1, row[0].r2)):
        out.extend((replace(key, i=i), diagram) for i, (key, diagram) in enumerate(cell, 1))
    return tuple(out)


# -- dimension counting ----------------------------------------------------------


@lru_cache(maxsize=None)
def count_row_configs(k: int, s1: int, s2: int, r1: int, r2: int) -> int:
    """Number of doubled-row configurations with the given unit profile.

    A configuration splits the k fibers into a = s1 + r1 conjugate-pair
    units, which cover j fibers, and b = s2 + r2 flip-fixed units; a
    conjugate-pair unit of size m carries 2**(m-1) sign choices, 2**(j-a)
    over all of them. Choosing which of the units are through ones gives
    C(a, s1) C(b, s2) sum_j C(k, j) 2**(j-a) S(j, a) S(k-j, b).
    """
    if min(s1, s2, r1, r2) < 0:
        return 0
    a, b = s1 + r1, s2 + r2
    total = sum(
        binomial(k, j) * 2 ** (j - a) * stirling2(j, a) * stirling2(k - j, b)
        for j in range(a, k - b + 1)
    )
    return binomial(a, s1) * binomial(b, s2) * total


def projected_dimension(algebra: str, k: int, s1: int, s2: int = 0, cap: int | None = None) -> int:
    """Matrix dimension, computed without enumerating diagrams.

    Plain rows are counted as the flip-fixed doubled rows they equal. The
    cells are summed with the most units first, because those are the cheap
    ones at any k: a cell of u units sums k - u + 1 terms, each with
    Stirling numbers S(j, a) where j - a <= k - u. With `cap`, the sum stops
    at the first partial sum above it and returns that partial sum, so a
    profile over a guard is known to be over it without the full count.
    """
    family = check_window(algebra, k, s1, s2)
    total = 0
    for units in range(k - s1 - s2, -1, -1):
        for r2 in range(1 if family.plain else units + 1):
            if family.row_ok(k, s1, s2, units - r2, r2):
                total += count_row_configs(k, *family.to_doubled(s1, s2, units - r2, r2))
                if cap is not None and total > cap:
                    return total
    return total


# -- standard diagrams ------------------------------------------------------------


def standard_diagram(alpha, k: int, algebra: str = "z2"):
    """Contiguous-interval diagram realizing the shape `alpha`.

    Fibers are consumed left to right in role order (paired through, fixed
    through, paired horizontal, fixed horizontal), with conjugate-pair units
    taking the all-e section.
    """
    family = FAMILIES[algebra]
    if len(alpha) != len(family.alpha_roles) or sum(map(sum, alpha)) != k:
        raise ValueError(f"shape {alpha} is not a {algebra} shape of weight {k}")
    for part in alpha:
        if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
            raise ValueError(f"shape parts must be weakly decreasing, got {alpha}")
    units = []
    nxt = 1
    for role, part in zip(family.alpha_roles, alpha):
        for size in part:
            units.append((role, tuple(range(nxt, nxt + size)), (0,) * size))
            nxt += size
    return family.assemble(k, units)


# -- Gram matrices ----------------------------------------------------------------


def _join(pa: tuple[int, ...], pb: tuple[int, ...]) -> list[int]:
    """Blocks of the join of two partitions of one row, as bitmasks."""
    joined = list(pa)
    for b in pb:
        merged, rest = b, []
        for c in joined:
            if c & b:
                merged |= c
            else:
                rest.append(c)
        rest.append(merged)
        joined = rest
    return joined


def _through_image(view, joined: list[int]) -> int | None:
    """Union of the join blocks holding a through block of `view`, or None
    when some join block holds two of them."""
    image = 0
    for i in view.through:
        block = view.blocks[i]
        for c in joined:
            if c & block:
                break
        if image & c:
            return None
        image |= c
    return image


def row_partition_groups(views) -> list[tuple[tuple[int, ...], list[int]]]:
    """(row partition, basis indices) for each distinct row partition, in
    order of first occurrence."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, view in enumerate(views):
        groups.setdefault(view.blocks, []).append(idx)
    return list(groups.items())


@lru_cache(maxsize=None)
def build_gram(algebra: str, k: int, s1: int, s2: int = 0, guard: int = DEFAULT_GUARD) -> GramMatrix:
    """Gram matrix over the ordered basis for the given profile.

    Entries come from one join per pair of distinct row partitions; see the
    module docstring. Each is stored as its loop count, the exponent of
    x**loops, and a zero entry as None.
    """
    basis = enumerate_diagrams(algebra, k, s1, s2, guard)
    keys = tuple(key for key, _ in basis)
    diagrams = tuple(diagram for _, diagram in basis)
    target = FAMILIES[algebra].through_count(s1, s2)
    views = [diagram.row_view() for diagram in diagrams]
    groups = row_partition_groups(views)
    n = len(diagrams)
    rows = [[None] * n for _ in range(n)]
    for a, (pa, us) in enumerate(groups):
        for pb, vs in groups[a:]:
            joined = _join(pa, pb)
            loops = len(joined) - target
            if loops < 0:
                continue  # too few join blocks to keep every through block
            by_image: dict[int, list[int]] = {}
            for v in vs:
                image = _through_image(views[v], joined)
                if image is not None:
                    by_image.setdefault(image, []).append(v)
            if not by_image:
                continue
            for u in us:
                for v in by_image.get(_through_image(views[u], joined), ()):
                    rows[u][v] = rows[v][u] = loops
    exponents = tuple(tuple(row) for row in rows)
    return GramMatrix(algebra, k, s1, s2, keys, diagrams, exponents)


# -- the fibre permutations ---------------------------------------------------------


def _view_key(blocks, through) -> tuple[frozenset, frozenset]:
    """A diagram as its row blocks and its through blocks, both as bitmasks."""
    return frozenset(blocks), frozenset(through)


def fibre_permutation(gram: GramMatrix, sigma) -> tuple[int, ...]:
    """The index permutation of the basis under the fibre permutation sigma.

    sigma is a permutation of 0..k-1, fibre i going to sigma[i]. It moves
    the points of each basis diagram's row partition: point i of a plain row
    goes to sigma[i], point 2i+b of a doubled row to 2 sigma[i] + b, so e
    and g points stay apart; through blocks stay through. Entry u of the
    result is the index of the image of diagram u. Each family's basis is a
    union of orbits, since a profile and a signed row's counts do not see
    the order of the fibres; an image outside the basis raises KeyError.
    """
    views = [diagram.row_view() for diagram in gram.diagrams]
    index = {
        _view_key(view.blocks, (view.blocks[i] for i in view.through)): u
        for u, view in enumerate(views)
    }
    per = gram.diagrams[0].part.n // (2 * gram.k)  # points per fibre in one row
    point = [per * sigma[p // per] + p % per for p in range(per * gram.k)]

    def move(mask: int) -> int:
        image = 0
        while mask:
            low = mask & -mask
            image |= 1 << point[low.bit_length() - 1]
            mask ^= low
        return image

    return tuple(
        index[_view_key(map(move, view.blocks), (move(view.blocks[i]) for i in view.through))]
        for view in views
    )
