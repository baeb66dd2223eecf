import itertools
from typing import NamedTuple

import pytest

from diagram_gram.diagrams import RowView, even_mask, flip
from diagram_gram.families import FAMILIES
from diagram_gram.gram import enumerate_diagrams
from diagram_gram.z2diagrams import Z2Diagram, top_index
from test_partitions import block_of, make_diagram, part_of, restrict


def identity(k):
    """The identity diagram: each doubled point joined to its mirror image."""
    return make_diagram(Z2Diagram, k, [[v, v + 2 * k] for v in range(2 * k)])


class Z2Stats(NamedTuple):
    """Through-class and horizontal-edge counts of a doubled diagram.

    s1 conjugate pairs of through classes, s2 flip-fixed through classes;
    r1/r2 are the top-row horizontal analogues and r1p/r2p the bottom-row
    ones. The underlying 2k-diagram always has 2*s1 + s2 through blocks.
    """

    s1: int
    s2: int
    r1: int
    r2: int
    r1p: int
    r2p: int


def stats(diagram):
    """The `Z2Stats` of a whole diagram, block by block: the oracle for the
    enumeration's keys and the signed membership test."""
    half = 2 * diagram.k
    s1 = s2 = r1 = r2 = r1p = r2p = 0
    part = part_of(diagram)
    for block in part.blocks:
        top, bottom = block[0] < half, block[-1] >= half
        conjugate = block_of(part, block[0] ^ 1)
        if conjugate == block:  # flip-fixed
            if top and bottom:
                s2 += 1
            elif top:
                r2 += 1
            else:
                r2p += 1
        else:
            # conjugate pairs are counted once, on their e-side block
            if conjugate < block:
                continue
            if top and bottom:
                s1 += 1
            elif top:
                r1 += 1
            else:
                r1p += 1
    return Z2Stats(s1, s2, r1, r2, r1p, r2p)


def is_signed_member(diagram):
    """Membership test for the signed subalgebra's diagram basis: the oracle
    for `Family.row_ok` of the signed family.

    A diagram qualifies when, on each row, either the classes leave a
    fiber to spare or the row carries a conjugate pair of horizontal
    edges; diagrams whose through classes exhaust everything are always
    members.
    """
    st = stats(diagram)
    k = diagram.k
    if 2 * st.s1 + st.s2 == 2 * k:
        return True
    base = st.s1 + st.s2
    top = base + st.r1 + st.r2
    bot = base + st.r1p + st.r2p
    return (
        (top <= k - 1 and bot <= k - 1)
        or (top <= k and bot <= k - 1 and st.r1 != 0)
        or (top <= k - 1 and bot <= k and st.r1p != 0)
        or (top <= k and bot <= k and st.r1 != 0 and st.r1p != 0)
    )


def all_z2_diagrams(k):
    """Every flip-stable diagram on k fibers per row (rows independent).

    Constructed via the single-row unit decomposition applied to 2k fibers:
    a diagram on two rows of k fibers is the same thing as a flip-stable
    partition of one row of 2k fibers.
    """
    from diagram_gram.families import FAMILIES

    z2 = FAMILIES["z2"]
    out = []
    seen = set()
    for s1, s2 in z2.profiles(2 * k):
        for units in z2.configs(2 * k, s1, s2):
            # reinterpret a single row of 2k fibers as top row (1..k) and
            # bottom row (k+1..2k); through roles are meaningless here, so
            # skip dupes
            diagram_part = part_of(z2.assemble(2 * k, units))
            top_half = restrict(diagram_part, range(4 * k))
            if top_half in seen:
                continue
            seen.add(top_half)
            out.append(make_diagram(Z2Diagram, k, top_half.blocks))
    return out


def test_identity_stats_and_projection():
    for k in (1, 2, 3):
        ident = identity(k)
        st = stats(ident)
        assert (st.s1, st.s2, st.r1, st.r2, st.r1p, st.r2p) == (k, 0, 0, 0, 0, 0)
        assert ident.propagating_number() == 2 * k
        assert is_signed_member(ident)
        prod, loops = ident.multiply(ident)
        assert prod == ident and loops == 0


def test_all_singleton_pairs_stats():
    k = 3
    blocks = [[v] for v in range(4 * k)]
    d = make_diagram(Z2Diagram, k, blocks)
    st = stats(d)
    assert (st.s1, st.s2, st.r1, st.r1p, st.r2, st.r2p) == (0, 0, k, k, 0, 0)


def test_stability_is_validated():
    # join (1,e) with (2,e) but not (1,g) with (2,g): not flip-stable
    k = 2
    blocks = [[0, 2], [1], [3], [4], [5], [6], [7]]
    with pytest.raises(ValueError):
        make_diagram(Z2Diagram, k, blocks)


def test_mask_constructors_check_the_flip():
    # (1,e) joined with (2,e) but (1,g) not with (2,g), as in the test above
    k = 2
    masks = (0b101, 0b10, 0b1000, 1 << 4, 1 << 5, 1 << 6, 1 << 7)
    with pytest.raises(ValueError):
        Z2Diagram.from_masks(k, masks)
    view = RowView(blocks=(0b101, 0b10, 0b1000), through=(0,), fixed=(False,) * 3)
    with pytest.raises(ValueError):
        Z2Diagram.from_view(k, view)
    # the flip-stable neighbour passes every constructor alike
    stable = RowView(blocks=(0b101, 0b1010), through=(0, 1), fixed=(False, False))
    built = Z2Diagram.from_view(k, stable)
    assert built == Z2Diagram.from_masks(k, built.masks)
    assert built == make_diagram(Z2Diagram, k, part_of(built).blocks)
    assert str(built) == "{1e,2e,1'e,2'e|1g,2g,1'g,2'g}"


def test_flip_fixed_block_odd_size_rejected():
    # a flip-fixed block must have even size; sizes here are fine but the
    # companion check is exercised through stability, so build a legal one
    k = 1
    d = make_diagram(Z2Diagram, k, [[0, 1], [2, 3]])
    st = stats(d)
    assert (st.r2, st.r2p) == (1, 1)


def test_index_conventions():
    assert top_index(1, 0) == 0 and top_index(1, 1) == 1
    assert top_index(3, 0) == 4


def flip_stable(diagram) -> bool:
    """The e/g flip maps the blocks of `diagram` onto its blocks: the check
    `Z2Diagram.from_masks` makes and `multiply` leaves out."""
    even = even_mask(4 * diagram.k)
    return {flip(m, even) for m in diagram.masks} == set(diagram.masks)


def test_closure_and_stats_consistency_exhaustive_k2():
    diagrams = all_z2_diagrams(2)
    assert len(diagrams) == 164  # flip-stable partitions of 8 doubled points
    for d in diagrams:
        st = stats(d)
        assert 2 * st.s1 + st.s2 == d.propagating_number()
    for a, b in itertools.product(diagrams, repeat=2):
        prod, _ = a.multiply(b)
        assert type(prod) is Z2Diagram and flip_stable(prod)


@pytest.mark.parametrize("algebra", ["z2", "signed"])
def test_products_of_basis_diagrams_are_flip_stable(algebra):
    """Stacking commutes with the e/g flip, so a product of flip-stable
    diagrams is flip-stable and `multiply` does not check it: every ordered
    pair of basis diagrams at k <= 3, across the profiles."""
    for k in (1, 2, 3):
        basis = [
            d
            for s1, s2 in FAMILIES[algebra].profiles(k)
            for _, d in enumerate_diagrams(algebra, k, s1, s2)
        ]
        for a, b in itertools.product(basis, repeat=2):
            prod, _ = a.multiply(b)
            assert type(prod) is Z2Diagram and flip_stable(prod), (k, a, b)


def test_multiply_skips_the_flip_check(monkeypatch):
    a = identity(2)

    def refuse(self, k, masks):
        raise AssertionError("flip checked")

    monkeypatch.setattr(Z2Diagram, "_set", refuse)
    assert a.multiply(a) == (a, 0)


def test_projection_propagating_matches_stats_on_bases():
    for k in (1, 2, 3):
        for s1 in range(k + 1):
            for s2 in range(k + 1 - s1):
                for key, d in enumerate_diagrams("z2", k, s1, s2):
                    st = stats(d)
                    assert (st.s1, st.s2) == (s1, s2)
                    assert (st.r1, st.r2) == (key.r1, key.r2)
                    assert (st.r1p, st.r2p) == (key.r1, key.r2)
                    d.row_view()  # raises ValueError unless mirror-symmetric


def test_signed_membership():
    # the excluded shape: one paired through class and two fixed edges at k=3
    k = 3
    blocks = [
        [0, 2 * k + 0], [1, 2 * k + 1],          # through pair on fiber 1
        [2, 3], [4, 5],                           # fixed edges, top
        [2 * k + 2, 2 * k + 3], [2 * k + 4, 2 * k + 5],  # fixed edges, bottom
    ]
    d = make_diagram(Z2Diagram, k, blocks)
    st = stats(d)
    assert (st.s1, st.s2, st.r1, st.r2) == (1, 0, 0, 2)
    assert not is_signed_member(d)
    # the signed basis at the published parameters has exactly 34 elements
    z2_basis = enumerate_diagrams("z2", 3, 1, 0)
    signed = [d for _, d in z2_basis if is_signed_member(d)]
    assert len(signed) == 34
    assert len(z2_basis) == 37


def test_signed_membership_asymmetric_rows():
    # rows are judged independently: a spare fiber or a conjugate edge pair
    # is needed on each row separately
    k = 2
    top_edge_pair = [[0, 2], [1, 3]]  # one paired edge covering both fibers
    bottom_fixed = [[4, 5], [6, 7]]   # two flip-fixed edges, bottom row
    d = make_diagram(Z2Diagram, k, top_edge_pair + bottom_fixed)
    st = stats(d)
    assert (st.r1, st.r2, st.r1p, st.r2p) == (1, 0, 0, 2)
    # bottom row fills every fiber without a paired edge: not a member
    assert not is_signed_member(d)
    mirrored = make_diagram(Z2Diagram, k, top_edge_pair + [[4, 6], [5, 7]])
    st2 = stats(mirrored)
    assert (st2.r1, st2.r1p) == (1, 1)
    # both rows carry a paired edge: member even though both rows are full
    assert is_signed_member(mirrored)


def test_signed_filter_agrees_with_membership_predicate():
    for k in (1, 2, 3):
        for s1 in range(k):
            for s2 in range(k - s1):
                ambient = enumerate_diagrams("z2", k, s1, s2)
                signed = enumerate_diagrams("signed", k, s1, s2)
                expected = [d for _, d in ambient if is_signed_member(d)]
                assert [d for _, d in signed] == expected


def test_multiply_matches_diagonal_monomials_on_published_cell():
    # self-products of the basis close every horizontal edge into a loop
    for key, d in enumerate_diagrams("signed", 3, 1, 0):
        _, loops = d.multiply(d)
        assert loops == 2 * key.r1 + key.r2


def test_token_rendering():
    d = identity(1)
    assert str(d) == "{1e,1'e|1g,1'g}"
