import pytest

from diagram_gram.gram import enumerate_diagrams, standard_diagram
from diagram_gram.stirling import (
    binomial,
    count_coarser_bruteforce,
    gen_stirling_z2,
    stirling2,
)


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
