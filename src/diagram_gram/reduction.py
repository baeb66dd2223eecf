"""Coarsening poset and block-diagonal reduction of the Gram matrices.

The basis diagrams carry a partial order: u lies below v when every class of
v is contained in a class of u of compatible type (a paired through class
may only grow into a paired through class, a flip-fixed horizontal edge only
into flip-fixed targets, and so on). Subtracting, for every diagram, the
fully reduced columns of all strictly coarser diagrams is Moebius inversion
along that poset, so the congruence transform is computed in closed form as
the inverse of the poset's zeta matrix: a unitriangular integer matrix T
with G~ = T' G T.

The reduced matrix decomposes into one block per horizontal-edge profile,
plus, for the signed algebra only (`Family.has_rho`), a separate block
collecting the diagrams whose classes are all singletons covering every
fiber (their natural coarsenings leave the signed family, so their entries
keep extra terms).

The poset is read off the Gram matrix handed in (poset duality): no stage
below `build_gram` looks a matrix up by its profile, so the guard applies
only where a basis is enumerated. u lies below v iff
G[u][v] == G[u][u], that is, iff the product u.v keeps every through block
and has as many loops as u has with itself. A nonzero entry G[u][v] is
x**(#join - target), with join the join of the row partitions P_u and P_v
(see `gram`), and #join <= #P_u; so the equality forces join == P_u, which
makes P_u coarser than P_v, and the equal through images of the kept
product make the through blocks of v land one-to-one on those of u. The
flip-type conditions need no test of their own: row partitions are
flip-stable, so a block containing a flip-fixed block is flip-fixed, and a
flip-fixed block containing one block of a conjugate through pair also
contains the other, which breaks one-to-one landing. The same argument
shows that u strictly below v has fewer row blocks than v, hence a smaller
diagonal degree 2 r1 + r2; `DiagramKey.sort_key` orders by that degree
first, so the basis order is a linear extension of the poset and the zeta
matrix is upper triangular. Moebius inversion needs nothing more (Stanley,
Enumerative Combinatorics I, 3.6): `_zeta_inverse` solves a column by back
substitution in basis order, summing over the entries of the column found
so far, and reads each relation u <= w straight off the exponent grid. It
returns T as those sparse columns, ((u, T[u][v]), ...) over the nonzero
entries, and `_congruence` and `BlockDecomposition` keep that form; only
the `reduce` command densifies it, to checksum it. The dense relation,
`coarsening_poset`, is built only for `verify`'s poset-duality check, once
per profile; the reduction and `minimal_common_coarsening` never build it.

The role-swap pairs are read off each diagram's `RowView` (row partition,
through blocks, flip-fixed flags). A role swap is a pair with one row
partition and two different through sets; (t1, t2) count the through
blocks only u has. `diagram_coarser_or_equal` decides the coarsening on
whole diagrams; it is the oracle the tests and `verify` compare the poset
against. It is one walk over the block masks and their through and flip
types for every family, a plain diagram's blocks all being flip-fixed.
The role-swap oracle on whole diagrams, `swap_pair_parameters`, lives in
the tests.

Orbit representatives. G is invariant under the index permutations
`GramMatrix.generators` (see `gram`), and `GramMatrix.orbits` checks that
entry by entry, once per matrix, falling back to the trivial group when it
fails. Then the poset read off G is invariant, and so are its zeta matrix,
T, T'GT, the nonzero pattern, the cells and the predictions: a generator
maps a row partition, its through blocks and a key's cell to those of the
image. So every stage of `reduce_gram` computes only what belongs to the
orbit representatives of `GramMatrix.orbits`, and copies the rest along the
orbit tree by an index permutation:
- `_zeta_inverse` solves the representatives' columns; column g(v) is
  column v with row u moved to g(u), since T[g(u)][g(v)] = T[u][v];
- `_congruence` hands `polynomials.congruence`, the packed-integer kernel
  that also gives `determinant` its isotypic blocks Y'BY and whose
  docstring derives the digit width, G's exponent grid, L = the columns of
  T at the representatives and R = T, which gives the representatives'
  rows of T'GT; every other row is its parent's read at g⁻¹
  (`gram.unfold_rows`). It trusts the orbits it is handed: T is
  `_zeta_inverse` of the checked G on those orbits, so it is invariant too;
- the nonzero columns of the representatives' rows are read once, and
  those of row g(u) are those of row u mapped by g (`gram.unfold_sparse`);
- `compare_blocks` compares the representatives' rows of each cell with
  their predictions, and maps their diff columns the same way.

T is unitriangular, so its largest column L1 norm L is at least 1, and the
coefficients of T'GT are at most L**2 in absolute value. T'GT is the first
`Poly` stage and stays dense rows: its entries are no longer monomials, and
`BlockDecomposition.block` and `det_direct` index it by (row, column). The
entrywise `Poly` T'GT, the dense back substitution over `coarsening_poset`
and the dense block compare are the oracles in the tests.
The off-block violations are the nonzero pattern's entries that join two
cells, and `det_blocks` splits the determinant along the pattern's
connected components.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import compress
from operator import attrgetter
from typing import NamedTuple

from .diagrams import even_mask, flip
from .gram import (
    DEFAULT_GUARD,
    DiagramKey,
    GramMatrix,
    Orbits,
    build_gram,
    row_partition_groups,
    unfold_rows,
    unfold_sparse,
)
from .polynomials import Poly, congruence, phi_z2

__all__ = [
    "CoarseningPoset",
    "BlockDecomposition",
    "DiffEntry",
    "block_types",
    "diagram_coarser_or_equal",
    "coarsening_poset",
    "minimal_common_coarsening",
    "reduce_gram",
    "reduced_decomposition",
    "predicted_blocks",
    "compare_blocks",
    "role_swaps",
    "is_rho_key",
]


# -- the coarsening relation ---------------------------------------------------


def block_types(diagram) -> list[tuple[bool, bool]]:
    """(is_through, is_flip_fixed) of each block of a whole diagram, read
    off its masks.

    A block is through when it meets both rows. The flip exchanges the
    points 2i and 2i+1 of a doubled row and fixes every point of a plain
    row, which has one point per fibre: so every plain block is flip-fixed.
    """
    row = diagram.per_fibre * diagram.k
    top = (1 << row) - 1
    through = [bool(m & top and m >> row) for m in diagram.masks]
    if diagram.per_fibre == 1:
        return [(t, True) for t in through]
    even = even_mask(2 * row)
    return [(t, flip(m, even) == m) for t, m in zip(through, diagram.masks)]


def diagram_coarser_or_equal(da, db, types_a=None, types_b=None) -> bool:
    """True iff da is a coarser diagram of db (reflexively).

    Every class of db must be contained in a class of da; through classes
    must land one-to-one in through classes of the same flip type, and
    flip-fixed horizontal edges only in flip-fixed targets. Every block of
    a plain partition diagram is flip-fixed, so there the flip types always
    agree. Without the one-to-one requirement the relation would identify
    pairs whose product drops the through count, and the block reduction
    degenerates. The target of a block of db is the block of da holding
    its least point.

    `types_a` and `types_b` are `block_types(da)` and `block_types(db)`,
    built here unless given: a caller that compares every pair of a basis
    builds them once per diagram.
    """
    if type(da) is not type(db):
        raise TypeError("cannot compare diagrams of different families")
    masks_a = da.masks
    if types_a is None:
        types_a = block_types(da)
    if types_b is None:
        types_b = block_types(db)
    used_through: set[int] = set()
    for block, (b_through, b_fixed) in zip(db.masks, types_b):
        low = block & -block
        for target, a in enumerate(masks_a):
            if a & low:
                break
        if block & ~a:
            return False
        a_through, a_fixed = types_a[target]
        if b_through:
            if not a_through or a_fixed != b_fixed or target in used_through:
                return False
            used_through.add(target)
        elif b_fixed and not a_fixed:
            return False
    return True


class CoarseningPoset:
    """The coarsening order of a basis: `leq[u][v]` says diagram u is
    coarser than or equal to v. Immutable; compares by identity."""

    def __init__(self, keys: tuple[DiagramKey, ...], leq: tuple[tuple[bool, ...], ...]):
        self.__dict__.update(keys=keys, leq=leq)

    def __setattr__(self, name, value):
        raise AttributeError("CoarseningPoset is immutable")


@lru_cache(maxsize=0)  # caches nothing: counts calls for perfbench's cache_info()
def coarsening_poset(gram: GramMatrix) -> CoarseningPoset:
    """Coarsening order of `gram`'s basis: u below v iff G[u][v] == G[u][u].

    Read off the exponents of the matrix handed in; the diagonal is never
    zero. See the module docstring for why the equality is the coarsening
    order.
    """
    leq = tuple(
        tuple(e == row[u] for e in row) for u, row in enumerate(gram.exponents)
    )
    return CoarseningPoset(gram.keys, leq)


def minimal_common_coarsening(gram: GramMatrix, u: int, v: int):
    """Index of the finest diagram of `gram`'s basis coarser than both basis
    elements u and v, or None.

    Applies when G[u][v] is nonzero, that is, when the product of the two
    diagrams keeps the full through count (`verify` checks every entry
    against its product). The candidates and the finest among them are
    read off the exponent grid, w <= u iff G[w][u] == G[w][w]: the relation
    of `coarsening_poset`, which `verify` compares with
    `diagram_coarser_or_equal` on every pair. Raises if the minimum is not
    unique.
    """
    grid = gram.exponents
    if grid[u][v] is None:
        return None
    candidates = [w for w, row in enumerate(grid) if row[u] == row[w] == row[v]]
    finest = [w for w in candidates if all(grid[o][w] == grid[o][o] for o in candidates)]
    if len(finest) != 1:
        raise RuntimeError(
            f"common coarsening of {u} and {v} is not unique: {finest}"
        )
    return finest[0]


# -- transform -------------------------------------------------------------------


def _zeta_inverse(grid, orbits: Orbits) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Z^-1 as sparse columns: column v is ((u, T[u][v]), ...) over the
    nonzero entries, in ascending u. T is unitriangular with integer entries.

    u <= w is read off the exponent grid as grid[u][w] == grid[u][u]. The
    basis order is a linear extension of the poset, so Z is upper
    triangular and each column is solved upward in descending index by back
    substitution, T[u][v] = -sum(T[w][v] for u < w <= v with u <= w), a sum
    over the entries of the column found so far. Only the columns of
    `orbits.representatives` are solved: the grid is invariant under the
    group of `orbits` (`GramMatrix.orbits` checks that), so are the poset
    and T, and column perm[v] is column v with each row u moved to perm[u].
    """
    cols: list = [None] * len(grid)
    for v in orbits.representatives:
        col = [(v, 1)]
        for u in reversed(range(v)):
            row = grid[u]
            top = row[u]
            if row[v] == top:
                c = -sum(c for w, c in col if row[w] == top)
                if c:
                    col.append((u, c))
        col.reverse()
        cols[v] = tuple(col)
    for child, parent, perm, _ in orbits.tree:
        cols[child] = tuple(sorted((perm[u], c) for u, c in cols[parent]))
    return tuple(cols)


def _congruence(transform, grid, orbits: Orbits):
    """T' G T for T given as the sparse columns of `_zeta_inverse` and G as
    its exponent grid (x**e as e, zero as None), by `polynomials.congruence`.
    The result is dense rows of `Poly`; equal results share one `Poly`.

    G and T must be invariant under the group of `orbits`: G is checked by
    `GramMatrix.orbits`, and T is `_zeta_inverse` of that G on those orbits,
    so it is invariant by construction. Only the rows of the representatives
    are computed, and every other row is copied from its parent's
    (`gram.unfold_rows`). A caller with a T of its own that is not invariant
    passes the trivial group, `orbit_tree((), n)`.
    """
    exponents = set().union(*grid) - {None}
    coeffs = {None: (), **{e: (0,) * e + (1,) for e in exponents}}
    left = [transform[u] for u in orbits.representatives]
    rows = [None] * len(grid)
    for u, row in zip(orbits.representatives, congruence(left, grid, transform, coeffs)):
        rows[u] = row
    return unfold_rows(rows, orbits)


# -- blocks and predictions --------------------------------------------------------


def is_rho_key(key: DiagramKey, k: int, s1: int, s2: int) -> bool:
    """Signed-algebra keys whose classes are all singletons filling every fiber."""
    sizes = [p for part in key.alpha for p in part]
    return all(p == 1 for p in sizes) and len(sizes) == k and s1 + s2 + key.r1 + key.r2 == k


class DiffEntry(NamedTuple):
    block: tuple
    row_key: DiagramKey
    col_key: DiagramKey
    got: Poly
    predicted: Poly
    informative: bool

    def describe(self) -> str:
        kind = "informative" if self.informative else "hard"
        return (
            f"[{kind}] block {self.block} entry ({self.row_key.i},{self.row_key.alpha},"
            f"{self.row_key.r1},{self.row_key.r2}) x ({self.col_key.i},{self.col_key.alpha},"
            f"{self.col_key.r1},{self.col_key.r2}): reduced {self.got} vs predicted {self.predicted}"
        )


class BlockDecomposition:
    """The reduced matrix T'GT with its cells; the closed-form predictions
    and their diffs are built on first read, so the determinants and the
    verdict, which read neither, never build them. Immutable; compares by
    identity."""

    def __init__(
        self,
        gram: GramMatrix,
        transform: tuple[tuple[tuple[int, int], ...], ...],  # sparse columns of T
        reduced: tuple[tuple[Poly, ...], ...],
        nonzero: tuple[tuple[int, ...], ...],  # ascending nonzero columns of each row
        cells: tuple[tuple[tuple, tuple[int, ...]], ...],  # (label, member indices)
        offblock_violations: tuple[tuple[int, int], ...],
    ):
        self.__dict__.update(
            gram=gram, transform=transform, reduced=reduced, nonzero=nonzero,
            cells=cells, offblock_violations=offblock_violations,
        )

    def __setattr__(self, name, value):
        raise AttributeError("BlockDecomposition is immutable")

    @cached_property
    def predicted(self) -> dict:
        return predicted_blocks(self.gram, self.cells)

    @cached_property
    def diffs(self) -> tuple[DiffEntry, ...]:
        return compare_blocks(self.gram, self.reduced, self.cells, self.predicted)

    def block(self, label) -> tuple[tuple[Poly, ...], ...]:
        members = dict(self.cells)[label]
        return tuple(
            tuple(self.reduced[u][v] for v in members) for u in members
        )

    def hard_diffs(self) -> tuple[DiffEntry, ...]:
        return tuple(d for d in self.diffs if not d.informative)


def _cells_of(gram: GramMatrix):
    """Ordered (label, indices) cells; signed all-singleton keys go to "rho"."""
    groups: dict[tuple, list[int]] = {}
    for idx, key in enumerate(gram.keys):
        if gram.family.has_rho and is_rho_key(key, gram.k, gram.s1, gram.s2):
            label = ("rho",)
        else:
            label = ("cell", key.r1, key.r2)
        groups.setdefault(label, []).append(idx)
    ordered = sorted(groups.items(), key=lambda kv: min(kv[1]))
    return tuple((label, tuple(members)) for label, members in ordered)


def reduce_gram(gram: GramMatrix) -> BlockDecomposition:
    """Congruence-reduce a Gram matrix. The comparison against the closed
    forms is made when `predicted` or `diffs` is first read.

    Every stage reads the rows or columns of the orbit representatives of
    `gram.orbits` and copies the rest by index permutation.
    """
    grid, orbits = gram.exponents, gram.orbits
    transform = _zeta_inverse(grid, orbits)
    reduced = _congruence(transform, grid, orbits)
    # a Poly is zero iff its coefficient tuple is empty
    columns = range(len(reduced))
    coeffs = attrgetter("coeffs")
    nonzero: list = [None] * len(reduced)
    for u in orbits.representatives:
        nonzero[u] = tuple(compress(columns, map(coeffs, reduced[u])))
    nonzero = unfold_sparse(nonzero, orbits)
    cells = _cells_of(gram)
    cell_of = [None] * len(reduced)
    for label, members in cells:
        for m in members:
            cell_of[m] = label
    violations = tuple(
        (u, v) for u, row in enumerate(nonzero) for v in row if cell_of[u] != cell_of[v]
    )
    return BlockDecomposition(gram, transform, reduced, nonzero, cells, violations)


@lru_cache(maxsize=0)  # caches nothing: counts calls for perfbench's cache_info()
def reduced_decomposition(
    algebra: str, k: int, s1: int, s2: int = 0, guard: int = DEFAULT_GUARD
) -> BlockDecomposition:
    """`reduce_gram` of `build_gram` for the profile.

    Nothing is cached: the decomposition, with its matrix, transform,
    reduced rows and predictions, lives as long as its caller holds it.
    `global_poly` and `verify.run_all_checks` visit each profile once and
    keep no decomposition, so `reduce_gram` always starts with the last
    profile's matrix and decomposition released.
    """
    return reduce_gram(build_gram(algebra, k, s1, s2, guard))


def predicted_blocks(gram: GramMatrix, cells) -> dict:
    """Closed-form block predictions, keyed like the extracted blocks.

    Within an ordinary block the diagonal is the named product polynomial and
    the only nonzero off-diagonal entries sit at role-swap pairs. The signed
    "rho" block additionally carries the correction product phi(0, free) on
    its diagonal and literal statement terms elsewhere; where the literal
    statement disagrees with the reduction output the comparison downgrades
    to informative rather than patching either side.

    A role-swap value depends only on the doubled cell profile and (t1,
    t2), so each is built once per call and shared by every pair that has
    it; the values go with the call, so none outlives the profile.
    """
    out = {}
    swap_values: dict = {}

    def swap_value(key: DiagramKey, swap) -> Poly:
        args = (gram.doubled(key), swap)
        value = swap_values.get(args)
        if value is None:
            value = swap_values[args] = _swap_pair_value(*args)
        return value

    for label, members in cells:
        size = len(members)
        block = [[Poly.zero()] * size for _ in range(size)]
        swaps = role_swaps(gram, members)
        if label[0] == "rho":
            for a in range(size):
                for b in range(size):
                    block[a][b] = _predict_rho_entry(
                        gram, members[a], members[b], swaps.get((a, b)), swap_value
                    )
        else:
            for a in range(size):
                block[a][a] = gram.phi(gram.keys[members[a]])
            for (a, b), swap in swaps.items():
                block[a][b] = swap_value(gram.keys[members[a]], swap)
        out[label] = tuple(tuple(row) for row in block)
    return out


def role_swaps(gram: GramMatrix, members) -> dict[tuple[int, int], tuple[int, int]]:
    """Role-swap pairs among `members`, as {(a, b): (t1, t2)} over positions.

    A pair qualifies when both diagrams have one row partition and different
    through sets; t1 counts the conjugate pairs and t2 the flip-fixed blocks
    among the through blocks only the first diagram has. This is what the
    role-swap oracle of the tests, `swap_pair_parameters`, returns for the
    same pair, in doubled coordinates: every plain block is flip-fixed, so a
    plain swap of t blocks is (0, t).
    """
    views = [gram.diagrams[m].row_view() for m in members]
    out = {}
    for _, same in row_partition_groups(views):
        for a in same:
            va = views[a]
            for b in same:
                only = set(va.through).difference(views[b].through)
                if not only:
                    continue
                t2 = sum(va.fixed[i] for i in only)
                t1 = len(only) - t2
                out[a, b] = (t1 // 2, t2)
    return out


def _swap_pair_value(doubled, swap) -> Poly:
    """Role-swap entry for a swap (t1, t2) in a cell of the doubled profile
    (s1, s2, r1, r2)."""
    t1, t2 = swap
    s1, s2, r1, r2 = doubled
    value = phi_z2(s1 + t1, s2 + t2, r1 - t1, r2 - t2)
    coeff = (-1) ** (t1 + t2) * 2**t1 * math.factorial(t1) * math.factorial(t2)
    return value.scalar_mul(coeff)


def _predict_rho_entry(gram: GramMatrix, u: int, v: int, swap, swap_value) -> Poly:
    s1, s2, k = gram.s1, gram.s2, gram.k
    ku, kv = gram.keys[u], gram.keys[v]
    free = k - s1 - s2
    correction = phi_z2(s1, s2, 0, free)
    if u == v:
        return gram.phi(ku) + correction
    # a nonzero Gram entry means the product keeps the full through count
    if gram.exponents[u][v] is not None:
        return correction.scalar_mul((-1) ** (ku.r1 + kv.r1))
    if swap is not None:
        # literal statement value: role-swap term plus the correction product
        return swap_value(ku, swap) + correction
    return Poly.zero()


def compare_blocks(gram: GramMatrix, reduced, cells, predicted) -> tuple[DiffEntry, ...]:
    """Entrywise reduced-vs-predicted diff; rho off-diagonals are informative.

    The diffs come in cell order, then row-major within the cell. Only the
    rows of the representatives of `gram.orbits` are compared: the reduced
    matrix is invariant under its group, and so are the predictions, which
    are read off the cells, the row views and the grid, all of which the
    generators preserve. So the diff columns of row perm[u] are those of
    row u mapped by perm.
    """
    orbits = gram.orbits
    where: list = [None] * len(reduced)
    for label, members in cells:
        for a, u in enumerate(members):
            where[u] = (label, members, a)
    columns: list = [None] * len(reduced)
    for u in orbits.representatives:
        label, members, a = where[u]
        got, want = tuple(map(reduced[u].__getitem__, members)), predicted[label][a]
        # equal rows compare in one pass; most entries are the shared zero
        columns[u] = () if got == want else tuple(
            v for v, p, q in zip(members, got, want) if p != q
        )
    columns = unfold_sparse(columns, orbits)
    diffs = []
    for label, members in cells:
        pred = predicted[label]
        position = {v: b for b, v in enumerate(members)}
        for a, u in enumerate(members):
            for v in columns[u]:
                informative = label[0] == "rho" and u != v
                diffs.append(DiffEntry(
                    label, gram.keys[u], gram.keys[v], reduced[u][v], pred[a][position[v]],
                    informative,
                ))
    return tuple(diffs)
