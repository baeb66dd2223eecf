import itertools
import random
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagram_gram.diagrams import points
from diagram_gram.partitions import UnionFind, set_partitions


class SetPartition:
    """An immutable partition of {0..n-1} into disjoint nonempty blocks.

    It is stored in canonical form: each block a sorted tuple, blocks
    ordered by least element, so two partitions are equal iff their
    canonical forms are, and they hash and deduplicate. The package stores
    a diagram as block masks; the oracles here read it as a `SetPartition`
    (`part_of`), and the fixtures build diagrams through it
    (`make_diagram`), which checks that the blocks partition the points.
    """

    __slots__ = ("n", "blocks", "block_index")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        if n < 0:
            raise ValueError(f"ground size must be nonnegative, got {n}")
        canon = sorted(tuple(sorted(b)) for b in blocks)
        index = [-1] * n
        seen = 0
        for bi, block in enumerate(canon):
            if not block:
                raise ValueError("empty block")
            for v in block:
                if not 0 <= v < n:
                    raise ValueError(f"element {v} out of range for ground size {n}")
                if index[v] != -1:
                    raise ValueError(f"element {v} occurs in two blocks")
                index[v] = bi
            seen += len(block)
        if seen != n:
            missing = [v for v in range(n) if index[v] == -1]
            raise ValueError(f"blocks do not cover the ground set, missing {missing}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", tuple(canon))
        object.__setattr__(self, "block_index", tuple(index))

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def __str__(self) -> str:
        return "{" + "|".join(",".join(str(v) for v in b) for b in self.blocks) + "}"

    def __repr__(self) -> str:
        return f"SetPartition({self.n}, {list(map(list, self.blocks))})"


def part_of(diagram):
    """The blocks of a diagram as a `SetPartition` of its points."""
    return SetPartition(2 * diagram.per_fibre * diagram.k, map(points, diagram.masks))


def make_diagram(cls, k, blocks):
    """The diagram of class `cls` at k whose blocks are `blocks`, point
    lists over its two rows; raises ValueError unless they partition the
    points."""
    part = SetPartition(2 * cls.per_fibre * k, blocks)
    return cls.from_masks(k, tuple(sum(1 << v for v in block) for block in part.blocks))


def block_of(part, v):
    """The block of `part` that holds v."""
    return part.blocks[part.block_index[v]]


def restrict(part, points):
    """Partition induced on `points`, relabelled by position in `points`."""
    pos = {v: i for i, v in enumerate(points)}
    pieces = {}
    for v in points:
        pieces.setdefault(part.block_index[v], []).append(pos[v])
    return SetPartition(len(points), pieces.values())


def singletons(n):
    return SetPartition(n, [[v] for v in range(n)])


def from_pairs(n, pairs):
    """Finest partition in which each listed pair lies in one block."""
    uf = UnionFind(n)
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair ({i}, {j}) out of range for ground size {n}")
        uf.union(i, j)
    return SetPartition(n, uf.blocks())


def join(a, b):
    """Smallest partition coarser than both a and b."""
    if a.n != b.n:
        raise ValueError(f"ground size mismatch: {a.n} != {b.n}")
    uf = UnionFind(a.n)
    for part in (a, b):
        for block in part.blocks:
            first = block[0]
            for v in block[1:]:
                uf.union(first, v)
    return SetPartition(a.n, uf.blocks())


def is_coarser_than(a, b):
    """True iff every block of b is contained in a block of a."""
    if a.n != b.n:
        raise ValueError(f"ground size mismatch: {a.n} != {b.n}")
    index = a.block_index
    for block in b.blocks:
        bi = index[block[0]]
        if any(index[v] != bi for v in block[1:]):
            return False
    return True


def all_partitions(n):
    return [SetPartition(n, blocks) for blocks in set_partitions(range(n))]


def test_from_pairs_examples():
    assert str(from_pairs(3, [])) == "{0|1|2}"
    assert str(from_pairs(4, [(0, 1), (1, 2)])) == "{0,1,2|3}"
    assert str(from_pairs(6, [(0, 3), (3, 5), (1, 2)])) == "{0,3,5|1,2|4}"


def test_from_pairs_out_of_range():
    with pytest.raises(ValueError):
        from_pairs(3, [(0, 3)])


def test_constructor_validates():
    with pytest.raises(ValueError):
        SetPartition(3, [[0, 1]])  # not covering
    with pytest.raises(ValueError):
        SetPartition(3, [[0, 1], [1, 2]])  # overlapping
    with pytest.raises(ValueError):
        SetPartition(2, [[0], [1], []])  # empty block


def test_join_examples():
    p = SetPartition(4, [[0, 1], [2], [3]])
    assert join(p, p) == p
    a = SetPartition(3, [[0, 1], [2]])
    b = SetPartition(3, [[0], [1, 2]])
    assert join(a, b) == SetPartition(3, [[0, 1, 2]])


def test_join_size_mismatch():
    with pytest.raises(ValueError):
        join(singletons(3), singletons(4))


@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12),
)))
@settings(max_examples=200, deadline=None)
def test_join_equals_pair_closure(data):
    # joining two partitions equals union-find closure over both pair lists
    n, pairs_a, pairs_b = data
    a = from_pairs(n, pairs_a)
    b = from_pairs(n, pairs_b)
    assert join(a, b) == from_pairs(n, list(pairs_a) + list(pairs_b))


def test_lattice_axioms_exhaustive_small():
    for n in (1, 2, 3, 4):
        parts = all_partitions(n)
        for a, b, c in itertools.product(parts, repeat=3):
            assert join(a, join(b, c)) == join(join(a, b), c)
        for a, b in itertools.product(parts, repeat=2):
            assert join(a, b) == join(b, a)
        for a in parts:
            assert join(a, a) == a


def test_partial_order_via_join_exhaustive_n6():
    # is_coarser_than is the order induced by join, on all pairs at n == 6
    parts = all_partitions(6)
    assert len(parts) == 203  # Bell(6)
    for a, b in itertools.product(parts, repeat=2):
        assert is_coarser_than(a, b) == (join(a, b) == a)


def test_associativity_sampled_n6():
    parts = all_partitions(6)
    rng = random.Random(7)
    for _ in range(2000):
        a, b, c = rng.choice(parts), rng.choice(parts), rng.choice(parts)
        assert join(a, join(b, c)) == join(join(a, b), c)


def test_canonical_form_is_fixpoint():
    p = SetPartition(6, [[4], [1, 2], [0, 5, 3]])
    again = SetPartition(p.n, p.blocks)
    assert again == p
    assert again.blocks == p.blocks


def test_restrict_relabels_by_position():
    p = SetPartition(6, [[0, 3, 5], [1, 2], [4]])
    top = restrict(p, [0, 1, 2])
    assert top == SetPartition(3, [[0], [1, 2]] + [])
    bottom = restrict(p, [3, 4, 5])
    assert bottom == SetPartition(3, [[0, 2], [1]])


def test_set_partitions_counts_are_bell_numbers():
    bell = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for n, value in bell.items():
        assert sum(1 for _ in set_partitions(range(n))) == value


def recursive_walk(items, min_blocks=0):
    """The restricted-growth-string walk as a recursion, one level per item."""
    items = list(items)
    n = len(items)
    if n == 0:
        if min_blocks <= 0:
            yield []
        return
    rgs = [0] * n

    def rec(i, maxused):
        if maxused + 1 + n - i < min_blocks:
            return
        if i == n:
            blocks = [[] for _ in range(maxused + 1)]
            for j, b in enumerate(rgs):
                blocks[b].append(items[j])
            yield blocks
            return
        for b in range(maxused + 2):
            rgs[i] = b
            yield from rec(i + 1, max(maxused, b))

    yield from rec(1, 0)


def test_set_partitions_order_equals_the_recursive_walk():
    for n in range(7):
        for least in range(-1, n + 2):
            assert list(set_partitions("abcdef"[:n], least)) == list(
                recursive_walk("abcdef"[:n], least)
            )


def test_set_partitions_with_at_least_min_blocks():
    for n in range(7):
        every = list(set_partitions(range(n)))
        for least in range(-1, n + 2):
            assert list(set_partitions(range(n), least)) == [
                blocks for blocks in every if len(blocks) >= least
            ]
