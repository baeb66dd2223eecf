import pytest

from diagram_gram import stirling
from diagram_gram.families import FAMILIES
from diagram_gram.gram import enumerate_diagrams
from diagram_gram.partitions import set_partitions
from diagram_gram.stirling import (
    binomial,
    coarser_profile_counts,
    count_coarser_bruteforce,
    gen_stirling_z2,
    stirling2,
)
from diagram_gram.z2diagrams import Z2Diagram
from test_gram import standard_diagram
from test_partitions import block_of, part_of, restrict


def test_stirling2_examples():
    assert stirling2(0, 0) == 1
    assert all(stirling2(n, 0) == 0 for n in range(1, 6))
    assert stirling2(4, 2) == 7
    assert all(stirling2(n, n) == 1 for n in range(6))
    assert stirling2(5, 2) == 15


def test_stirling2_satisfies_its_recurrence():
    for n in range(1, 60):
        for k in range(1, n + 1):
            assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)
    assert stirling2(3, 4) == stirling2(-1, 0) == stirling2(2, -1) == 0
    assert stirling2(2000, 1999) == binomial(2000, 2)
    # S(n, n-2) = C(n, 3) + 3 C(n, 4), from the alternating sum at large n
    assert stirling2(2000, 1998) == binomial(2000, 3) + 3 * binomial(2000, 4)


def test_gen_stirling_z2_spot_values():
    # single fixed edge absorbed into a through class, (1, 0) profile
    assert gen_stirling_z2(1, 0, 1, 0, 0, 0) == 2
    # symbolic: 2*s1 + s2 at the same cell
    for s1 in range(4):
        for s2 in range(4):
            assert gen_stirling_z2(s1, s2, 1, 0, 0, 0) == 2 * s1 + s2
            assert gen_stirling_z2(s1, s2, 1, 1, 0, 1) == 2 * s1 + 2 * s2 + 1
    # outside the window
    assert gen_stirling_z2(1, 1, 1, 2, 2, 0) == 0


def test_gen_stirling_diagonal_and_zero():
    for s1 in range(3):
        for s2 in range(3):
            for r1 in range(4):
                for r2 in range(4):
                    assert gen_stirling_z2(s1, s2, r1, r2, r1, r2) == 1
    assert gen_stirling_z2(1, 0, 1, 0, 2, 0) == 0
    assert gen_stirling_z2(1, 0, 1, 0, -1, 0) == 0


def test_gen_stirling_partition_examples():
    # the plain count is the flip-fixed slice gen_stirling_z2(0, s, 0, r, 0, p)
    for s in range(4):
        for r in range(5):
            assert gen_stirling_z2(0, s, 0, r, 0, r) == 1
        assert gen_stirling_z2(0, s, 0, 1, 0, 0) == s
    assert gen_stirling_z2(0, 2, 0, 2, 0, 1) == 5
    assert gen_stirling_z2(0, 1, 0, 2, 0, 1) == 3
    assert gen_stirling_z2(0, 0, 0, 3, 0, 1) == stirling2(3, 1)


def test_bruteforce_rejects_bad_input():
    _, d = enumerate_diagrams("partition", 2, 1)[0]
    with pytest.raises(ValueError):
        count_coarser_bruteforce(d, 0, 0)
    _, z = enumerate_diagrams("z2", 2, 1, 0)[0]
    with pytest.raises(ValueError):
        count_coarser_bruteforce(z, 0)


def test_bruteforce_trivial_cases():
    # no horizontal edges: the only coarser diagram is the diagram itself
    _, ident = enumerate_diagrams("partition", 3, 3)[0]
    assert count_coarser_bruteforce(ident, 0) == 1
    for p in (1, 2):
        assert count_coarser_bruteforce(ident, p) == 0


def test_bruteforce_matches_hand_count():
    # two singleton horizontal edges over one through class: merging them or
    # absorbing one into the through class gives three coarsenings at p == 1
    d = standard_diagram(((1,), (1, 1)), 3, algebra="partition")
    assert count_coarser_bruteforce(d, 1) == 3
    assert gen_stirling_z2(0, 1, 0, 2, 0, 1) == 3


def test_oracle_equivalence_small():
    for k in (1, 2):
        for s1 in range(k + 1):
            for s2 in range(k + 1 - s1):
                for key, d in enumerate_diagrams("z2", k, s1, s2):
                    for p1 in range(key.r1 + 1):
                        for p2 in range(key.r1 + key.r2 + 2):
                            assert count_coarser_bruteforce(d, p1, p2) == gen_stirling_z2(
                                s1, s2, key.r1, key.r2, p1, p2
                            )


def test_oracle_counts_coarser_with_paired_edge_fused():
    # a single paired edge can fuse into one flip-fixed edge: count 1 at (0, 1)
    d = standard_diagram(((), (), (3,), ()), 3)
    assert count_coarser_bruteforce(d, 0, 1) == 1
    assert gen_stirling_z2(0, 0, 1, 0, 0, 1) == 1


# -- the per-target walks, kept as the reference for coarser_profile_counts --


def reference_count(diagram, target=None) -> int:
    """Admissible groupings of the diagram's row blocks whose coarser diagram
    has the horizontal-edge profile `target`, (p1, p2) for a doubled diagram
    and p for a plain one, or every admissible grouping when `target` is
    None: one walk per target, as the oracle made before it counted every
    target in one walk."""
    if isinstance(diagram, Z2Diagram):
        return _reference_z2(diagram, target)
    return _reference_partition(diagram, target)


def _z2_row_units(diagram):
    """Top-row blocks of a symmetric diagram with flip and through metadata,
    read off the whole partition.

    Returns (blocks, conj, through) where conj[i] is the index of the
    flip-conjugate of block i, which is i for a flip-fixed block.
    """
    half, part = 2 * diagram.k, part_of(diagram)
    top = restrict(part, range(half))
    blocks = list(top.blocks)
    through = [block_of(part, block[0])[-1] >= half for block in blocks]
    index = top.block_index
    conj = [index[b[0] ^ 1] for b in blocks]
    return blocks, conj, through


def _reference_z2(diagram, target):
    blocks, conj, through = _z2_row_units(diagram)
    count = 0
    for grouping in set_partitions(range(len(blocks))):
        group_of = {}
        for gi, group in enumerate(grouping):
            for b in group:
                group_of[b] = gi
        ok = True
        for group in grouping:
            if sum(1 for b in group if through[b]) > 1:
                ok = False
                break
        if not ok:
            continue
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
        if target is None or (q1, q2) == target:
            count += 1
    return count


def _reference_partition(diagram, target):
    k, part = diagram.k, part_of(diagram)
    blocks = list(restrict(part, range(k)).blocks)
    through = []
    for block in blocks:
        full = block_of(part, block[0])
        through.append(full[-1] >= k)
    count = 0
    for grouping in set_partitions(range(len(blocks))):
        horizontal = 0
        ok = True
        for group in grouping:
            t = sum(1 for b in group if through[b])
            if t > 1:
                ok = False
                break
            if t == 0:
                horizontal += 1
        if ok and (target is None or horizontal == target):
            count += 1
    return count


ORACLE_PROFILES = [
    (algebra, k, s1, s2)
    for algebra, top in (("z2", 3), ("signed", 3), ("partition", 4))
    for k in range(1, top + 1)
    for s1, s2 in FAMILIES[algebra].profiles(k)
]


@pytest.mark.parametrize("algebra, k, s1, s2", ORACLE_PROFILES, ids=str)
def test_profile_counts_equal_the_per_target_walk(algebra, k, s1, s2):
    for key, diagram in enumerate_diagrams(algebra, k, s1, s2):
        counts = coarser_profile_counts(diagram)
        if algebra == "partition":
            targets = list(range(key.r1 + 2))
        else:
            targets = [
                (p1, p2) for p1 in range(key.r1 + 2) for p2 in range(key.r1 + key.r2 + 2)
            ]
        for target in targets:
            assert counts.get(target, 0) == reference_count(diagram, target), target
        assert set(counts) <= set(targets)
        assert all(n > 0 for n in counts.values())
        assert sum(counts.values()) == reference_count(diagram)


# -- the walk memo: one walk per distinct input, a fresh Counter per call ----

VERIFY_K3_PROFILES = [
    (algebra, k, s1, s2)
    for algebra, family in FAMILIES.items()
    for k in range(1, 3 + family.plain + 1)
    for s1, s2 in family.profiles(k)
]


def reference_counts(key, diagram) -> dict:
    """The nonzero counts of the per-target reference walks, keyed as
    `coarser_profile_counts` keys them."""
    if isinstance(diagram, Z2Diagram):
        targets = [(p1, p2) for p1 in range(key.r1 + 2) for p2 in range(key.r1 + key.r2 + 2)]
    else:
        targets = range(key.r1 + 2)
    counts = {target: reference_count(diagram, target) for target in targets}
    return {target: n for target, n in counts.items() if n}


def test_every_verify_diagram_gets_the_reference_counts_with_the_memo_cold():
    """The 429 diagrams that `verify --k 3` walks, in its order and from a
    cold memo: a memo key coarser than the walk's inputs would hand some
    diagram the counts of an earlier one with the same key."""
    stirling._walk.cache_clear()
    diagrams = [
        (key, diagram)
        for profile in VERIFY_K3_PROFILES
        for key, diagram in enumerate_diagrams(*profile)
    ]
    for key, diagram in diagrams:
        assert coarser_profile_counts(diagram) == reference_counts(key, diagram), key
    assert len(diagrams) == 429
    assert stirling._walk.cache_info().misses == 114


def test_a_mutated_result_does_not_reach_the_next_diagram_of_its_signature():
    """Two distinct diagrams whose blocks have the same through flags and
    flip images share one walk; each call returns its own Counter."""
    by_signature = {}
    for key, diagram in enumerate_diagrams("z2", 3, 1, 0):
        _, conj, through = _z2_row_units(diagram)
        by_signature.setdefault((tuple(conj), tuple(through)), []).append((key, diagram))
    (first_key, first), (key, second) = next(
        group[:2] for group in by_signature.values() if len(group) > 1
    )
    assert first != second
    stirling._walk.cache_clear()
    counts = coarser_profile_counts(first)
    assert counts == reference_counts(first_key, first)
    counts[(99, 0)] += 1
    del counts[(first_key.r1, first_key.r2)]
    assert coarser_profile_counts(second) == reference_counts(key, second)
    assert stirling._walk.cache_info()[:2] == (1, 1)  # (hits, misses): one walk
