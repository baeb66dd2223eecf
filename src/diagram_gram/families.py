"""One description per algebra family: "partition", "z2" and "signed".

The three families share one Gram construction, one block reduction and one
set of generalized Stirling numbers. A `Family` holds what differs between
them; every stage looks the record up in `FAMILIES` instead of testing the
algebra's name.

Plain partition diagrams are the flip-fixed slice of the doubled diagrams:
a plain block is a flip-fixed block, so the plain profile (s, r) is the
doubled profile (0, s, 0, r). Plain diagrams store s in s1 and r in r1 (with
s2 == r2 == 0), and `to_doubled` carries those stored coordinates to the
doubled ones. Every closed form is then the doubled one: the falling
product (x-s)...(x-s-r+1) is phi_z2(0, s, 0, r), the plain coarser count
is gen_stirling_z2(0, s, 0, r, 0, p), the through count is 2 s1 + s2 and
the diagonal degree 2 r1 + r2, all in doubled coordinates. The map is
linear, so it also carries a role swap (t1, t2) over.

A row configuration of k fibers is a tuple of units (role, fibers,
section): a group of fibers, the role of its class, and for a conjugate
pair the sign choice of its first side (first fiber pinned to e). Roles
index the stored profile (s1, s2, r1, r2): 0 conjugate-pair through, 1
flip-fixed through, 2 conjugate-pair horizontal, 3 flip-fixed horizontal.
Plain classes take roles 0 (through) and 2 (horizontal).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, NamedTuple

from .diagrams import PartitionDiagram, RowView
from .partitions import set_partitions
from .z2diagrams import Z2Diagram, top_index

__all__ = ["Family", "FAMILIES", "profile_of"]


class Family(NamedTuple):
    """What the pipeline needs to know about one algebra family.

    The admissible profiles at k are the (s1, s2) with s1 + s2 <= k - spare,
    and s2 == 0 for a `plain` family; `window` describes that set for error
    messages. A plain family's rows also have r2 == 0.
    `unit_choices(m)` gives the (role, section) choices of a group of m
    fibers, `alpha_roles` the roles whose class sizes make up a key's
    shape, `assemble(k, units)` the basis diagram of a configuration, built
    from its `RowView`, and
    `row_ok(k, s1, s2, r1, r2)` whether a row of that stored profile lies
    in the family. `ambient` names the unrestricted family whose basis
    contains this one's, `has_rho` says whether the reduction keeps a
    separate tail block of all-singleton diagrams, and `to_doubled` maps a
    stored (s1, s2, r1, r2) to doubled coordinates.
    """

    window: str
    unit_choices: Callable[[int], tuple[tuple[int, tuple[int, ...] | None], ...]]
    alpha_roles: tuple[int, ...]
    assemble: Callable
    ambient: str
    row_ok: Callable[[int, int, int, int, int], bool] = lambda k, s1, s2, r1, r2: True
    spare: int = 0
    plain: bool = False
    has_rho: bool = False
    to_doubled: Callable[[int, int, int, int], tuple[int, int, int, int]] = (
        lambda s1, s2, r1, r2: (s1, s2, r1, r2)
    )

    def profiles(self, k: int) -> tuple[tuple[int, int], ...]:
        """The admissible (s1, s2) at k, in the order the verdict visits them."""
        top = k - self.spare
        return tuple(
            (s1, s2) for s1 in range(top + 1) for s2 in range(1 if self.plain else top - s1 + 1)
        )

    def has_profile(self, k: int, s1: int, s2: int) -> bool:
        """(s1, s2) in `profiles(k)`, by arithmetic: O(1) at any k."""
        return min(s1, s2) >= 0 and s1 + s2 <= k - self.spare and not (self.plain and s2)

    def configs(self, k: int, s1: int, s2: int):
        """Every row configuration of k fibers with s1 units of role 0 and
        s2 of role 1, as a tuple of units.

        Only groupings of at least s1 + s2 groups are walked; s1 of the
        groups take role 0, s2 of the others role 1, and the rest a
        horizontal role, so the work follows the profile's own size. The
        groups, and so the units, come in order of least fiber, which
        `assemble` relies on.
        """
        for grouping in set_partitions(range(1, k + 1), s1 + s2):
            groups = list(map(tuple, grouping))
            for pairs in itertools.combinations(range(len(groups)), s1):
                rest = [g for g in range(len(groups)) if g not in pairs]
                for fixed in itertools.combinations(rest, s2):
                    # 2 stands for both horizontal roles, 2 and 3
                    wanted = dict.fromkeys(pairs, 0) | dict.fromkeys(fixed, 1)
                    choices = [
                        [
                            (role, fibers, section)
                            for role, section in self.unit_choices(len(fibers))
                            if min(role, 2) == wanted.get(g, 2)
                        ]
                        for g, fibers in enumerate(groups)
                    ]
                    yield from itertools.product(*choices)

    def alpha(self, units) -> tuple[tuple[int, ...], ...]:
        """Class sizes per role of `alpha_roles`, each weakly decreasing."""
        return tuple(
            tuple(sorted((len(fibers) for r, fibers, _ in units if r == role), reverse=True))
            for role in self.alpha_roles
        )

    def through_count(self, s1: int, s2: int) -> int:
        """Through blocks of a profile's diagrams, as one row of points sees them."""
        d1, d2, _, _ = self.to_doubled(s1, s2, 0, 0)
        return 2 * d1 + d2


def profile_of(units) -> tuple[int, int, int, int]:
    """Stored profile (s1, s2, r1, r2) of a configuration: units per role."""
    counts = [0, 0, 0, 0]
    for role, _, _ in units:
        counts[role] += 1
    return tuple(counts)


# -- the three records -----------------------------------------------------------


@lru_cache(maxsize=None)
def _doubled_units(size: int):
    sections = [(0,) + bits for bits in itertools.product((0, 1), repeat=size - 1)]
    return ((1, None), (3, None)) + tuple(
        (role, section) for section in sections for role in (0, 2)
    )


def _view(sides) -> RowView:
    """The `RowView` of row blocks given as (mask, through, fixed) triples
    in order of least point. The units of a configuration come in order of
    least fiber (`Family.configs`), and a unit's blocks in order of least
    point, so the assemblies list them that way without sorting."""
    blocks, through, fixed = zip(*sides)
    return RowView(blocks, tuple(itertools.compress(range(len(blocks)), through)), fixed)


def _assemble_plain(k: int, units) -> PartitionDiagram:
    return PartitionDiagram.from_view(k, _view(
        (sum(1 << (i - 1) for i in fibers), role < 2, True) for role, fibers, _ in units
    ))


def _assemble_doubled(k: int, units) -> Z2Diagram:
    sides = []
    for role, fibers, section in units:
        both = sum(3 << top_index(i, 0) for i in fibers)  # both points of every fiber
        if role % 2:  # flip-fixed
            sides.append((both, role < 2, True))
        else:  # a conjugate pair of blocks, the first holding the first fiber's e
            first = sum(1 << top_index(i, s) for i, s in zip(fibers, section))
            sides += [(first, role < 2, False), (both ^ first, role < 2, False)]
    return Z2Diagram.from_view(k, _view(sides))


def _signed_row(k: int, s1: int, s2: int, r1: int, r2: int) -> bool:
    """A row keeps a spare fiber, or fills every fiber with a conjugate
    horizontal pair among its classes or with conjugate through pairs."""
    total = s1 + s2 + r1 + r2
    return total <= k - 1 or (total == k and (s1 == k or r1 != 0))


FAMILIES = {
    "partition": Family(
        window="s <= k",
        unit_choices=lambda size: ((0, None), (2, None)),
        alpha_roles=(0, 2),
        assemble=_assemble_plain,
        ambient="partition",
        plain=True,
        to_doubled=lambda s1, s2, r1, r2: (0, s1, 0, r1),
    ),
    "z2": Family(
        window="s1+s2 <= k",
        unit_choices=_doubled_units,
        alpha_roles=(0, 1, 2, 3),
        assemble=_assemble_doubled,
        ambient="z2",
    ),
    "signed": Family(
        window="s1+s2 <= k-1",
        unit_choices=_doubled_units,
        alpha_roles=(0, 1, 2, 3),
        assemble=_assemble_doubled,
        ambient="z2",
        row_ok=_signed_row,
        spare=1,
        has_rho=True,
    ),
}
