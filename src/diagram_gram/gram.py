"""Basis enumeration and Gram matrices for the three diagram algebras.

The matrix rows are the mirror-symmetric diagrams with a prescribed
through-class profile, ordered by (weighted edge count, plain edge count,
shape, canonical encoding). `Family.assemble` builds each one's row view
and block masks straight from its row configuration, and the canonical
encoding is read off the masks: the blocks as ascending point tuples,
ordered by least point. An entry is the monomial x**loops of the product
of its row and column diagrams when that product keeps the full through
count, and the zero polynomial otherwise.

The entries are read off row partitions, not computed as products. Each
basis diagram is a row partition P plus a set of through blocks (its
`RowView`). Stacking u on v glues u's bottom row P_u to v's top row P_v, so
the middle row becomes the join of P_u and P_v. The product keeps all
`target` through blocks iff every join block holds as many through blocks
of u as of v, and that number is 0 or 1; the loops are then the join blocks
holding none, #join - target of them. `Diagram.multiply` is not
used here; the tests and `verify` compare these entries against it.

G is invariant under the hyperoctahedral group B_k = Z_2^k ⋊ S_k, which
permutes the fibres and swaps the e and g points of a fibre (S_k alone for
the plain family): a group element maps a row partition, its through blocks
and a product's loops to those of the images. `basis_generators` gives the
index permutations of three generators, π((0 1)), π((0 1 ... k-1)) and the
e/g swap at fibre 0. `orbit_tree` walks them breadth first, which yields one
representative per orbit of basis diagrams and a spanning tree of each
orbit. `build_gram` computes only the representatives' rows, with one join
per pair of a representative's row partition and any row partition, and
copies every other row from its parent in the tree by an index permutation,
since G[g(u)][w] = G[u][g⁻¹(w)] (`unfold_rows`). The dense loop over all
pairs of row partitions is the oracle in the tests. The walk is made once
per matrix and kept on it (`GramMatrix.symmetry`). `GramMatrix.orbits`
hands it, once G is checked invariant entry by entry, to every stage of
the reduction, which computes the representatives' rows or columns and
copies the rest as sparse (index, value) pairs (`unfold_sparse`).

A `GramMatrix` stores its entries in this form: `exponents[u][v]` is the
loop count e of the entry x**e, or None for a zero entry. The coarsening
poset and the congruence in `reduction` read that grid directly. The
`Poly` view `GramMatrix.entries` is rendered only when read, by the CLI
output, the determinants and the oracles. No basis or matrix is cached:
every CLI call asks for each profile once, so `enumerate_diagrams` and
`build_gram` build anew on every call.

The algebra tag ("partition", "z2" or "signed") names a `Family` in
`families.FAMILIES`, which holds the profile window, the row
configurations and the map of plain profiles into doubled coordinates.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import NamedTuple

from .diagrams import points
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
    "build_gram",
    "count_row_configs",
    "projected_dimension",
]

ALGEBRAS = tuple(FAMILIES)

DEFAULT_GUARD = 2000


class WindowError(ValueError):
    """Parameters outside the validity window of the requested algebra."""


class ResourceGuardError(RuntimeError):
    """Projected matrix dimension exceeds the configured guard."""


class DiagramKey(NamedTuple):
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


class GramMatrix:
    """Square monomial matrix over an ordered diagram basis.

    `exponents[u][v]` is e for the entry x**e, or None for a zero entry.
    For the plain partition algebra the profile is stored as s1 == s,
    s2 == 0. A matrix hashes and compares by identity.

    `symmetry` is the `orbit_tree` walk over index permutations of the
    basis, its `generators`, entry u being the index of the image of
    diagram u: π((0 1)) and π((0 1 ... k-1)) of the fibre permutations
    (`fibre_generators`), then, for the doubled families, the e/g swap at
    fibre 0 (`basis_generators`). They generate S_k, or B_k = Z_2^k ⋊ S_k
    on doubled diagrams, and G is invariant under each: G[g[u]][g[v]] ==
    G[u][v]. `build_gram` walks them once and passes the walk; a matrix
    built by hand may leave it out, which claims no symmetry. A matrix is
    immutable.
    """

    def __init__(
        self,
        algebra: str,
        k: int,
        s1: int,
        s2: int,
        keys: tuple[DiagramKey, ...],
        diagrams: tuple,
        exponents: tuple[tuple[int | None, ...], ...],
        symmetry: Orbits | None = None,
    ):
        self.__dict__.update(
            algebra=algebra, k=k, s1=s1, s2=s2, keys=keys, diagrams=diagrams,
            exponents=exponents, symmetry=symmetry,
        )

    def __setattr__(self, name, value):
        raise AttributeError("GramMatrix is immutable")

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return self.symmetry.generators if self.symmetry else ()

    @cached_property
    def orbits(self) -> Orbits:
        """The orbits every stage of the reduction reads: `symmetry` once
        the grid is checked invariant under its generators, entry by entry,
        else the trivial group's (`invariant_orbits`). The check runs once
        per matrix, on first read."""
        return invariant_orbits(self.exponents, self.symmetry or orbit_tree((), len(self.keys)))

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


@lru_cache(maxsize=0)  # caches nothing: counts calls for perfbench's cache_info()
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
    # ties break on the blocks as ascending point tuples, ordered by least
    # point; the diagrams of a profile share most of their blocks
    block_points = lru_cache(maxsize=None)(points)
    rows.sort(key=lambda row: (row[0].sort_key(), tuple(map(block_points, row[1].masks))))
    out = []
    for _, cell in itertools.groupby(rows, lambda row: (row[0].alpha, row[0].r1, row[0].r2)):
        out.extend((key._replace(i=i), diagram) for i, (key, diagram) in enumerate(cell, 1))
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


# -- the symmetries of the basis ----------------------------------------------------


def fibre_generators(k: int) -> tuple[tuple[int, ...], ...]:
    """(0 1) and (0 1 ... k-1) as permutations of 0..k-1, fibre i going to
    sigma[i]: they generate S_k. There are none at k = 1."""
    return ((1, 0, *range(2, k)), (*range(1, k), 0)) if k > 1 else ()


def _point_permutations(diagrams, point_maps) -> tuple[tuple[int, ...], ...]:
    """The index permutation of the basis `diagrams` under each map of the
    points of one row: a map moves the points of every row block, and
    through blocks stay through. Entry u of a permutation is the index of
    the image of diagram u; an image outside the basis raises KeyError."""
    views = [diagram.row_view() for diagram in diagrams]
    # a diagram is its row blocks and the union of its through blocks
    index = {(frozenset(view.blocks), view.through_mask): u for u, view in enumerate(views)}
    masks = set().union(*(view.blocks for view in views))
    perms = []
    for point in point_maps:
        image = {mask: _moved(mask, point) for mask in masks}.__getitem__
        perms.append(tuple(
            index[frozenset(map(image, view.blocks)), sum(map(image, view.through_blocks))]
            for view in views
        ))
    return tuple(perms)


def _moved(mask: int, point) -> int:
    """The bitmask `mask` with each point p moved to point[p]."""
    return sum(1 << point[p] for p in points(mask))


def _fibre_map(diagrams, k: int, sigma) -> list[int]:
    """The map of one row's points under the fibre permutation sigma: point
    i of a plain row goes to sigma[i], point 2i+b of a doubled row to
    2 sigma[i] + b, so e and g points stay apart."""
    per = diagrams[0].per_fibre
    return [per * sigma[p // per] + p % per for p in range(per * k)]


def basis_generators(diagrams, k: int) -> tuple[tuple[int, ...], ...]:
    """The index permutations of `GramMatrix.generators` for the basis
    `diagrams`: those of `fibre_generators(k)`, then, on doubled rows, the
    e/g swap at fibre 0, which exchanges the points 0 and 1."""
    if not diagrams:
        return ()
    maps = [_fibre_map(diagrams, k, sigma) for sigma in fibre_generators(k)]
    if diagrams[0].per_fibre == 2:  # doubled: two points per fibre in a row
        maps.append([p ^ (p < 2) for p in range(2 * k)])
    return _point_permutations(diagrams, maps)


def is_invariant(rows, perm) -> bool:
    """True iff the square matrix `rows` has M[perm[u]][perm[v]] == M[u][v]
    for all u and v: row perm[u], read at perm, is row u."""
    if len(perm) < 2:
        return True  # the identity
    read = itemgetter(*perm)
    return all(read(rows[image]) == tuple(row) for image, row in zip(perm, rows))


class Orbits(NamedTuple):
    """The orbits of the group that the index permutations `generators`
    generate on 0..n-1, from `orbit_tree`.

    `representatives` holds the least index of each orbit, ascending.
    `tree` holds, parents first, one (child, parent, perm, read) tuple for
    every other index: a breadth-first walk over the generators reaches
    child = perm[parent], and read(row) is the row read at perm⁻¹. A matrix
    M invariant under perm has M[perm[u]][w] = M[u][perm⁻¹[w]], so
    `unfold_rows` fills every child row from its parent's, and the
    (index, value) pairs of row perm[u] (its nonzero entries, its diffs)
    are those of row u with each index mapped by perm (`unfold_sparse`).
    """

    generators: tuple[tuple[int, ...], ...]
    representatives: list[int]
    tree: list[tuple[int, int, tuple[int, ...], object]]


def orbit_tree(generators, n: int) -> Orbits:
    """The `Orbits` of the index permutations `generators` on 0..n-1; with
    no generators every index is its own representative."""
    reads = []
    for perm in generators:
        inverse = [0] * n
        for u, image in enumerate(perm):
            inverse[image] = u
        reads.append(itemgetter(*inverse) if n > 1 else None)  # no edge for n < 2
    seen = [False] * n
    representatives, tree = [], []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        representatives.append(root)
        queue = [root]
        for parent in queue:  # the queue grows while it is walked
            for perm, read in zip(generators, reads):
                child = perm[parent]
                if not seen[child]:
                    seen[child] = True
                    queue.append(child)
                    tree.append((child, parent, perm, read))
    return Orbits(tuple(generators), representatives, tree)


def invariant_orbits(rows, orbits: Orbits) -> Orbits:
    """`orbits` when the square matrix `rows` is invariant under each of
    their generators, checked entry by entry (`is_invariant`), else those
    of the trivial group, so that every index is a representative."""
    if all(is_invariant(rows, perm) for perm in orbits.generators):
        return orbits
    return orbit_tree((), len(rows))


def unfold_rows(rows: list, orbits: Orbits) -> tuple[tuple, ...]:
    """The rows of an invariant matrix, given the representatives' rows in
    `rows` (the others None), each child row copied from its parent's by
    the index permutation of the tree."""
    for child, parent, _, read in orbits.tree:
        rows[child] = read(rows[parent])
    return tuple(rows)


def unfold_sparse(parts: list, orbits: Orbits) -> tuple[tuple, ...]:
    """The sparse rows of an invariant matrix, given those of the
    representatives in `parts` (the others None): a row is (index, value)
    pairs in ascending index, such as the nonzero entries of a row of T'GT
    or a column of T, and the pairs of a child are its parent's with each
    index moved by the tree's permutation, sorted on the index (values need
    no order)."""
    for child, parent, perm, _ in orbits.tree:
        parts[child] = tuple(sorted(((perm[i], x) for i, x in parts[parent]), key=itemgetter(0)))
    return tuple(parts)


# -- Gram matrices ----------------------------------------------------------------


def _join(pa: tuple[int, ...], pb: tuple[int, ...]) -> list[int]:
    """Blocks of the join of two partitions of one row, as bitmasks."""
    if pa == pb:
        return list(pa)
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
    when some join block holds two of them. A join block holds whole row
    blocks of `view`, so its through points are one through block or more."""
    image = 0
    for c in joined:
        through = c & view.through_mask
        if through:
            if through not in view.through_blocks:
                return None
            image |= c
    return image


def row_partition_groups(views, indices=None) -> list[tuple[tuple[int, ...], list[int]]]:
    """(row partition, basis indices) for each distinct row partition of
    the views at `indices` (all of them by default), in order of first
    occurrence."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx in range(len(views)) if indices is None else indices:
        groups.setdefault(views[idx].blocks, []).append(idx)
    return list(groups.items())


@lru_cache(maxsize=0)  # caches nothing: counts calls for perfbench's cache_info()
def build_gram(algebra: str, k: int, s1: int, s2: int = 0, guard: int = DEFAULT_GUARD) -> GramMatrix:
    """Gram matrix over the ordered basis for the given profile.

    Only the rows of orbit representatives under `basis_generators` are
    computed, from one join per pair of a representative's row partition
    and any row partition; every other row is copied by an index
    permutation (`orbit_tree`). See the module docstring. Each entry is
    stored as its loop count, the exponent of x**loops, and a zero entry as
    None.

    Nothing is cached: each call builds a new matrix, and the matrix lives
    as long as its caller holds it. The verdict and `verify` visit each
    profile once and keep none, so they hold one matrix at a time.
    """
    basis = enumerate_diagrams(algebra, k, s1, s2, guard)
    keys = tuple(key for key, _ in basis)
    diagrams = tuple(diagram for _, diagram in basis)
    target = FAMILIES[algebra].through_count(s1, s2)
    views = [diagram.row_view() for diagram in diagrams]
    n = len(views)
    generators = basis_generators(diagrams, k)
    orbits = orbit_tree(generators, n)
    groups = row_partition_groups(views)
    rows: list = [None] * n
    for pa, us in row_partition_groups(views, orbits.representatives):
        grown = {u: [None] * n for u in us}
        for pb, vs in groups:
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
            for u, row in grown.items():
                for v in by_image.get(_through_image(views[u], joined), ()):
                    row[v] = loops
        for u, row in grown.items():
            rows[u] = tuple(row)
    exponents = unfold_rows(rows, orbits)
    return GramMatrix(algebra, k, s1, s2, keys, diagrams, exponents, orbits)
