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

Algebra tags: "partition" (plain diagrams, profile s), "z2" (doubled
diagrams, profile (s1, s2)), "signed" (the subfamily whose rows keep a spare
fiber or a conjugate edge pair).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .diagrams import PartitionDiagram
from .partitions import SetPartition, set_partitions
from .polynomials import Poly
from .stirling import binomial
from .z2diagrams import Z2Diagram, bottom_index, top_index

__all__ = [
    "ALGEBRAS",
    "WindowError",
    "ResourceGuardError",
    "DiagramKey",
    "GramMatrix",
    "enumerate_diagrams",
    "standard_diagram",
    "underlying_partition",
    "build_gram",
    "exponent_grid",
    "count_row_configs",
    "projected_dimension",
]

ALGEBRAS = ("partition", "z2", "signed")

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


@dataclass(frozen=True)
class GramMatrix:
    """Square polynomial matrix over an ordered diagram basis.

    For the plain partition algebra the profile is stored as s1 == s,
    s2 == 0.
    """

    algebra: str
    k: int
    s1: int
    s2: int
    keys: tuple[DiagramKey, ...]
    diagrams: tuple
    entries: tuple[tuple[Poly, ...], ...]

    def dimension(self) -> int:
        return len(self.keys)

    def through_count(self) -> int:
        """Propagating number preserved by nonzero entries."""
        if self.algebra == "partition":
            return self.s1
        return 2 * self.s1 + self.s2

    def diagonal_degree(self, key: DiagramKey) -> int:
        return key.r1 if self.algebra == "partition" else 2 * key.r1 + key.r2


# -- validity windows ----------------------------------------------------------


def check_window(algebra: str, k: int, s1: int, s2: int = 0) -> None:
    if algebra not in ALGEBRAS:
        raise WindowError(f"unknown algebra {algebra!r}, expected one of {ALGEBRAS}")
    if k < 1:
        raise WindowError(f"k must be at least 1, got {k}")
    if s1 < 0 or s2 < 0:
        raise WindowError(f"negative profile ({s1}, {s2})")
    if algebra == "partition":
        if s2 != 0:
            raise WindowError("partition algebra takes a single through count s")
        if s1 > k:
            raise WindowError(f"s={s1} exceeds k={k}")
    elif algebra == "z2":
        if s1 + s2 > k:
            raise WindowError(f"s1+s2={s1 + s2} exceeds k={k}")
    else:  # signed
        if s2 > k - 1 or s1 + s2 > k - 1:
            raise WindowError(
                f"signed window requires s2 <= k-1 and s1+s2 <= k-1, got ({s1}, {s2})"
            )


# -- row configurations --------------------------------------------------------


def _sections(size: int):
    """Sign choices for a conjugate-pair unit, first fiber pinned to e."""
    for bits in itertools.product((0, 1), repeat=size - 1):
        yield (0,) + bits


def _row_unit_choices(group: tuple[int, ...]):
    yield ("z", group, None)
    for sec in _sections(len(group)):
        yield ("e", group, sec)


def _iter_z2_configs(k: int):
    """All (units, flags) rows: unit = (kind, fibers, section), flag = through."""
    for grouping in set_partitions(range(1, k + 1)):
        groups = [tuple(g) for g in grouping]
        for units in itertools.product(*(_row_unit_choices(g) for g in groups)):
            for flags in itertools.product((False, True), repeat=len(units)):
                yield units, flags


def _z2_config_profile(units, flags):
    s1 = s2 = r1 = r2 = 0
    for (kind, _, _), through in zip(units, flags):
        if kind == "e":
            if through:
                s1 += 1
            else:
                r1 += 1
        else:
            if through:
                s2 += 1
            else:
                r2 += 1
    return s1, s2, r1, r2


def _assemble_z2(k: int, units, flags) -> Z2Diagram:
    blocks: list[list[int]] = []
    shift = 2 * k
    for (kind, fibers, section), through in zip(units, flags):
        if kind == "z":
            top = [top_index(i, s) for i in fibers for s in (0, 1)]
            if through:
                blocks.append(top + [v + shift for v in top])
            else:
                blocks.append(top)
                blocks.append([v + shift for v in top])
        else:
            side_a = [top_index(i, s) for i, s in zip(fibers, section)]
            side_b = [top_index(i, 1 - s) for i, s in zip(fibers, section)]
            if through:
                blocks.append(side_a + [v + shift for v in side_a])
                blocks.append(side_b + [v + shift for v in side_b])
            else:
                blocks.extend([side_a, side_b])
                blocks.extend([[v + shift for v in side_a], [v + shift for v in side_b]])
    return Z2Diagram(k, SetPartition(4 * k, blocks))


def _z2_alpha(units, flags):
    sizes = {"s1": [], "s2": [], "r1": [], "r2": []}
    for (kind, fibers, _), through in zip(units, flags):
        role = ("s1" if through else "r1") if kind == "e" else ("s2" if through else "r2")
        sizes[role].append(len(fibers))
    return tuple(tuple(sorted(sizes[r], reverse=True)) for r in ("s1", "s2", "r1", "r2"))


def _signed_config_ok(k: int, s1: int, s2: int, r1: int, r2: int) -> bool:
    total = s1 + s2 + r1 + r2
    return total <= k - 1 or (total == k and (s1 == k or r1 != 0))


def _iter_partition_configs(k: int):
    for grouping in set_partitions(range(1, k + 1)):
        groups = [tuple(g) for g in grouping]
        for flags in itertools.product((False, True), repeat=len(groups)):
            yield groups, flags


def _assemble_partition(k: int, groups, flags) -> PartitionDiagram:
    blocks: list[list[int]] = []
    for fibers, through in zip(groups, flags):
        top = [i - 1 for i in fibers]
        if through:
            blocks.append(top + [v + k for v in top])
        else:
            blocks.append(top)
            blocks.append([v + k for v in top])
    return PartitionDiagram(k, SetPartition(2 * k, blocks))


def _partition_alpha(groups, flags):
    through = sorted((len(g) for g, f in zip(groups, flags) if f), reverse=True)
    horiz = sorted((len(g) for g, f in zip(groups, flags) if not f), reverse=True)
    return (tuple(through), tuple(horiz))


# -- enumeration -----------------------------------------------------------------


@lru_cache(maxsize=None)
def enumerate_diagrams(algebra: str, k: int, s1: int, s2: int = 0, guard: int = DEFAULT_GUARD):
    """Ordered basis: tuple of (DiagramKey, diagram) for the given profile."""
    check_window(algebra, k, s1, s2)
    dim = projected_dimension(algebra, k, s1, s2)
    if dim > guard:
        raise ResourceGuardError(
            f"projected dimension {dim} exceeds guard {guard} "
            f"for {algebra} k={k} profile ({s1}, {s2})"
        )
    rows = []
    if algebra == "partition":
        for groups, flags in _iter_partition_configs(k):
            if sum(flags) != s1:
                continue
            alpha = _partition_alpha(groups, flags)
            r = len(groups) - s1
            rows.append(((2 * r, r, alpha_sort_key(alpha)), alpha, r, 0,
                         _assemble_partition(k, groups, flags)))
    else:
        for units, flags in _iter_z2_configs(k):
            cs1, cs2, r1, r2 = _z2_config_profile(units, flags)
            if (cs1, cs2) != (s1, s2):
                continue
            if algebra == "signed" and not _signed_config_ok(k, s1, s2, r1, r2):
                continue
            alpha = _z2_alpha(units, flags)
            rows.append(((2 * r1 + r2, r1 + r2, alpha_sort_key(alpha)), alpha, r1, r2,
                         _assemble_z2(k, units, flags)))
    rows.sort(key=lambda row: (row[0], row[4].part.blocks))
    out = []
    ordinal = 0
    previous_cell = None
    for cell, alpha, r1, r2, diagram in rows:
        cell_id = (alpha, r1, r2)
        ordinal = ordinal + 1 if cell_id == previous_cell else 1
        previous_cell = cell_id
        out.append((DiagramKey(ordinal, alpha, r1, r2), diagram))
    return tuple(out)


# -- dimension counting ----------------------------------------------------------


@lru_cache(maxsize=None)
def count_row_configs(k: int, s1: int, s2: int, r1: int, r2: int) -> int:
    """Number of doubled-row configurations with the given unit profile.

    Recursive over the unit containing the smallest unplaced fiber; a
    conjugate-pair unit of size m carries 2**(m-1) sign choices.
    """
    if min(s1, s2, r1, r2) < 0:
        return 0
    if k == 0:
        return 1 if (s1, s2, r1, r2) == (0, 0, 0, 0) else 0
    total = 0
    for m in range(1, k + 1):
        ways = binomial(k - 1, m - 1)
        epair = ways * 2 ** (m - 1)
        total += epair * count_row_configs(k - m, s1 - 1, s2, r1, r2)
        total += epair * count_row_configs(k - m, s1, s2, r1 - 1, r2)
        total += ways * count_row_configs(k - m, s1, s2 - 1, r1, r2)
        total += ways * count_row_configs(k - m, s1, s2, r1, r2 - 1)
    return total


@lru_cache(maxsize=None)
def count_partition_configs(k: int, s: int, r: int) -> int:
    if s < 0 or r < 0:
        return 0
    if k == 0:
        return 1 if s == 0 and r == 0 else 0
    total = 0
    for m in range(1, k + 1):
        ways = binomial(k - 1, m - 1)
        total += ways * count_partition_configs(k - m, s - 1, r)
        total += ways * count_partition_configs(k - m, s, r - 1)
    return total


def projected_dimension(algebra: str, k: int, s1: int, s2: int = 0) -> int:
    """Matrix dimension, computed without enumerating diagrams."""
    check_window(algebra, k, s1, s2)
    if algebra == "partition":
        return sum(count_partition_configs(k, s1, r) for r in range(k - s1 + 1))
    total = 0
    for r1 in range(k - s1 - s2 + 1):
        for r2 in range(k - s1 - s2 - r1 + 1):
            if algebra == "signed" and not _signed_config_ok(k, s1, s2, r1, r2):
                continue
            total += count_row_configs(k, s1, s2, r1, r2)
    return total


# -- standard diagrams and shape extraction ---------------------------------------


def standard_diagram(alpha, k: int, algebra: str = "z2"):
    """Contiguous-interval diagram realizing the shape `alpha`.

    Fibers are consumed left to right: paired through classes first, then
    fixed through classes, then the horizontal classes, with conjugate-pair
    units taking the all-e section.
    """
    if algebra == "partition":
        through, horiz = alpha
        if sum(through) + sum(horiz) != k:
            raise ValueError(f"shape {alpha} does not have weight {k}")
        for part in alpha:
            if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                raise ValueError(f"shape parts must be weakly decreasing, got {alpha}")
        groups, flags = [], []
        nxt = 1
        for size in list(through) + list(horiz):
            groups.append(tuple(range(nxt, nxt + size)))
            nxt += size
        flags = [True] * len(through) + [False] * len(horiz)
        return _assemble_partition(k, groups, flags)
    a1, a2, a3, a4 = alpha
    if sum(map(sum, alpha)) != k:
        raise ValueError(f"shape {alpha} does not have weight {k}")
    for part in alpha:
        if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
            raise ValueError(f"shape parts must be weakly decreasing, got {alpha}")
    units, flags = [], []
    nxt = 1
    for part, kind, through in ((a1, "e", True), (a2, "z", True), (a3, "e", False), (a4, "z", False)):
        for size in part:
            fibers = tuple(range(nxt, nxt + size))
            nxt += size
            section = (0,) * size if kind == "e" else None
            units.append((kind, fibers, section))
            flags.append(through)
    return _assemble_z2(k, units, flags)


def underlying_partition(diagram):
    """Shape tuple of a mirror-symmetric diagram: sorted class sizes by role."""
    if isinstance(diagram, PartitionDiagram):
        k = diagram.k
        top = diagram.part.restrict(range(k))
        if top != diagram.part.restrict(range(k, 2 * k)):
            raise ValueError("diagram is not mirror-symmetric")
        through, horiz = [], []
        for block in top.blocks:
            full = diagram.part.block_of(block[0])
            (through if full[-1] >= k else horiz).append(len(block))
        return (tuple(sorted(through, reverse=True)), tuple(sorted(horiz, reverse=True)))
    if not isinstance(diagram, Z2Diagram):
        raise TypeError(f"unsupported diagram type {type(diagram).__name__}")
    if not diagram.is_mirror_symmetric():
        raise ValueError("diagram is not mirror-symmetric")
    half = 2 * diagram.k
    top, _ = diagram.halves()
    sizes = {"s1": [], "s2": [], "r1": [], "r2": []}
    for bi, block in enumerate(top.blocks):
        conj = top.block_index[block[0] ^ 1]
        if conj < bi:
            continue  # one count per conjugate pair
        is_through = diagram.part.block_of(block[0])[-1] >= half
        if conj == bi:
            sizes["s2" if is_through else "r2"].append(len(block) // 2)
        else:
            sizes["s1" if is_through else "r1"].append(len(block))
    return tuple(tuple(sorted(sizes[r], reverse=True)) for r in ("s1", "s2", "r1", "r2"))


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
    module docstring. Equal entries share one `Poly` instance.
    """
    basis = enumerate_diagrams(algebra, k, s1, s2, guard)
    keys = tuple(key for key, _ in basis)
    diagrams = tuple(diagram for _, diagram in basis)
    target = s1 if algebra == "partition" else 2 * s1 + s2
    views = [diagram.row_view() for diagram in diagrams]
    groups = row_partition_groups(views)
    n = len(diagrams)
    rows = [[Poly.zero()] * n for _ in range(n)]
    monomials: dict[int, Poly] = {}
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
            if loops not in monomials:
                monomials[loops] = Poly.monomial(loops)
            entry = monomials[loops]
            for u in us:
                for v in by_image.get(_through_image(views[u], joined), ()):
                    rows[u][v] = rows[v][u] = entry
    entries = tuple(tuple(row) for row in rows)
    return GramMatrix(algebra, k, s1, s2, keys, diagrams, entries)


_coeffs = operator.attrgetter("coeffs")


class _Exponents(dict):
    """Coefficient tuple -> monomial exponent (None for zero), filled on miss."""

    def __missing__(self, coeffs: tuple) -> int | None:
        if not coeffs:
            exponent = None
        elif coeffs[-1] == 1 and not any(coeffs[:-1]):
            exponent = len(coeffs) - 1
        else:
            raise ValueError(f"entry {Poly(coeffs)} is not a monomial")
        self[coeffs] = exponent
        return exponent


def exponent_grid(entries) -> list[list[int | None]]:
    """Exponent e of every entry x**e, or None for a zero entry.

    Raw Gram entries are monomials or zero; any other entry raises
    ValueError. Each distinct coefficient tuple is classified once.
    """
    exponent = _Exponents()
    return [list(map(exponent.__getitem__, map(_coeffs, row))) for row in entries]
