"""Classical and generalized Stirling numbers, with a counting oracle.

`gen_stirling_z2` counts, by closed formula, the diagrams with prescribed
reduced edge counts lying above a given symmetric diagram in the coarsening
order; the plain partition family's count is its flip-fixed slice
gen_stirling_z2(0, s, 0, r, 0, p). `count_coarser_bruteforce` computes the same
quantity by exhaustively enumerating merge patterns of the diagram's row
blocks, read from `coarser_profile_counts`, whose one walk per diagram sorts
every admissible grouping by the profile it lands on and so gives the counts
at all targets. The walk reads the diagram's `RowView` and its `flip` and
has no case per family: a plain diagram is walked as the flip-fixed slice
of a doubled one, whose blocks are all flip-fixed, and its counts are keyed
by (q1, q2) like every other diagram's, with q1 = 0. What the walk reads of
a diagram is each row block's through flag and the index of the block
holding its flipped points, so diagrams that agree on those share one
walk, a plain diagram with a doubled one whose blocks are all flip-fixed.
Like `stirling2` and `binomial`, the walk and `gen_stirling_z2` are
memoised pure functions of small integers. The acceptance suite compares
each diagram's counts with the formula on a target grid and at every
profile the walk reaches; the formula is never trusted where the
enumeration disagrees.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

from .diagrams import PartitionDiagram
from .partitions import set_partitions
from .z2diagrams import Z2Diagram

__all__ = [
    "stirling2",
    "binomial",
    "gen_stirling_z2",
    "coarser_profile_counts",
    "count_coarser_bruteforce",
]


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k); zero for negative
    arguments and for k > n.

    By the alternating sum k! S(n, k) = sum_i (-1)**(k-i) C(k, i) i**n
    (inclusion-exclusion over surjections onto k labelled blocks), so no
    recursion depth grows with n. The sum has k + 1 terms of up to n log2 k
    bits, so S(n, n) = 1 and S(n, n - 1) = C(n, 2), which a dimension count
    reaches first (`gram.projected_dimension`), are read directly.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    if k >= n - 1:
        return 1 if k == n else math.comb(n, 2)
    total = sum((-1) ** (k - i) * math.comb(k, i) * i**n for i in range(k + 1))
    return total // math.factorial(k)


@lru_cache(maxsize=None)
def binomial(n: int, k: int) -> int:
    """C(n, k); zero unless 0 <= k <= n, so also for negative n."""
    return math.comb(n, k) if 0 <= k <= n else 0


@lru_cache(maxsize=None)
def gen_stirling_z2(s1: int, s2: int, r1: int, r2: int, p1: int, p2: int) -> int:
    """Coarser-diagram count for the doubled-vertex families.

    Number of diagrams with the same through classes and p1 conjugate-pair
    plus p2 flip-fixed horizontal edges lying above a diagram that has r1
    and r2 of them. Zero outside the window p1 <= r1, r1 - p1 >= p2 - r2;
    equals 1 when (p1, p2) == (r1, r2).
    """
    if p1 < 0 or p2 < 0 or p1 > r1 or r1 - p1 < p2 - r2:
        return 0
    total = 0
    for i in range(p1, r1 + 1):
        outer = binomial(r1, i) * 2 ** (i - p1) * stirling2(i, p1)
        if outer == 0:
            continue
        inner = 0
        for j in range(r1 - i + 1):
            # the lower summation bound for l is clamped at zero when j
            # exceeds p2; validated against the brute-force oracle
            acc = 0
            for l in range(max(0, p2 - j), r2 + 1):
                acc += binomial(r2, l) * s2 ** (r2 - l) * stirling2(l + j, p2)
            inner += binomial(r1 - i, j) * (2 * s1 + s2) ** (r1 - i - j) * acc
        total += outer * inner
    return total


# -- brute-force oracle ------------------------------------------------------


def coarser_profile_counts(diagram) -> Counter:
    """Every coarser diagram's horizontal-edge profile, with its count.

    One walk over the set partitions of the diagram's row blocks gives all
    targets at once, as `{(q1, q2): n}`; q1 is always 0 for a plain diagram,
    whose blocks are all flip-fixed. The count is over the unrestricted
    symmetric family: every type-respecting blockwise merge of the diagram's
    row structure. The blocks and through positions are the diagram's
    `RowView`, which raises ValueError unless the diagram is
    mirror-symmetric, and each block is paired with the block holding its
    image under the diagram's `flip`, itself for a flip-fixed block.

    The walk reads only each block's through flag and the index of the
    block holding its flipped points, so it runs once per distinct pair of
    tuples; each call returns a fresh `Counter`.
    """
    view = diagram.row_view()
    blocks = view.blocks
    through = tuple(i in view.through for i in range(len(blocks)))
    position = {mask: i for i, mask in enumerate(blocks)}
    conj = tuple(position[diagram.flip(mask)] for mask in blocks)
    return Counter(dict(_walk(through, conj)))


@lru_cache(maxsize=None)
def _walk(through: tuple, conj: tuple) -> tuple:
    """The admissible groupings of blocks 0..n-1 counted by profile, as
    (profile, count) pairs: `coarser_profile_counts` for the diagram whose
    blocks have these through flags and flip images."""
    counts = Counter()
    for grouping in set_partitions(range(len(through))):
        group_of = {}
        for gi, group in enumerate(grouping):
            for b in group:
                group_of[b] = gi
        # distinct through blocks may never share a group: merging them would
        # either collapse two through classes or turn a conjugate pair into a
        # flip-fixed class, both of which change the through profile
        if any(sum(1 for b in group if through[b]) > 1 for group in grouping):
            continue
        # the merged partition must still be flip-stable: flipping every
        # block must permute the groups
        if any(
            group_of[conj[group[0]]] != group_of[conj[b]]
            for group in grouping
            for b in group[1:]
        ):
            continue
        q1 = q2 = 0
        for gi, group in enumerate(grouping):
            if any(through[b] for b in group):
                continue
            image = group_of[conj[group[0]]]
            if image == gi:
                q2 += 1
            elif image > gi:
                q1 += 1
        counts[q1, q2] += 1
    return tuple(counts.items())


def count_coarser_bruteforce(diagram, p1: int, p2: int | None = None) -> int:
    """Count coarser diagrams with the given horizontal-edge profile.

    For a doubled diagram, (p1, p2) is the target profile; for a plain
    partition diagram, p1 is the target horizontal-edge count and p2 must be
    omitted. Read from `coarser_profile_counts`, at (0, p1) for a plain
    diagram.
    """
    if isinstance(diagram, Z2Diagram) and p2 is None:
        raise ValueError("doubled diagrams need a (p1, p2) target")
    if isinstance(diagram, PartitionDiagram) and p2 is not None:
        raise ValueError("plain diagrams take a single target count")
    return coarser_profile_counts(diagram)[(0, p1) if p2 is None else (p1, p2)]
