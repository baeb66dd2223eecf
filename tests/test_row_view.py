"""Row-partition fast paths pinned against the diagram-level oracles.

`build_gram` and `role_swaps` read everything off each basis diagram's row
view, and `coarsening_poset` reads the order off the Gram matrix. Here they
are compared entrywise with `multiply`, `diagram_coarser_or_equal` and
`swap_pair_parameters`, the role-swap oracle kept in `test_reduction.py`.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagram_gram.diagrams import PartitionDiagram, RowView, points
from diagram_gram.gram import build_gram, enumerate_diagrams
from diagram_gram.polynomials import Poly
from diagram_gram.reduction import (
    block_types,
    coarsening_poset,
    diagram_coarser_or_equal,
    reduced_decomposition,
    role_swaps,
)
from diagram_gram.semisimplicity import admissible_profiles
from diagram_gram.z2diagrams import Z2Diagram
from test_partitions import make_diagram, part_of
from test_reduction import swap_pair_parameters
from test_stirling import VERIFY_K3_PROFILES

PROFILES = (
    [
        (algebra, k, s1, s2)
        for algebra in ("partition", "z2", "signed")
        for k in (1, 2, 3)
        for s1, s2 in admissible_profiles(algebra, k)
    ]
    + [("partition", 4, s, 0) for s in range(5)]
    # the k=4 profiles of test_k4_extension.py
    + [("signed", 4, 1, 0), ("z2", 4, 2, 0), ("z2", 4, 0, 2), ("z2", 4, 1, 1)]
)

K4_PROFILES = [
    (algebra, 4, s1, s2)
    for algebra in ("z2", "signed")
    for s1, s2 in admissible_profiles(algebra, 4)
]

# the library caches no matrix and no poset; the hypothesis tests below draw
# each profile many times
gram_of = lru_cache(maxsize=None)(build_gram)
poset_of = lru_cache(maxsize=None)(coarsening_poset)


def row_view_reference(diagram) -> RowView:
    """The `RowView` of a whole diagram, read off its `SetPartition`: the
    oracle for `row_view()`, which reads the block masks or keeps the view
    the enumeration assembled. Raises ValueError unless the bottom row
    mirrors the top row and every through block joins a row block to its
    own mirror image; the flip of a doubled row exchanges 2i and 2i+1."""
    part = part_of(diagram)
    row = part.n // 2
    top, bottom, through = set(), set(), set()
    for block in part.blocks:
        t = sum(1 << v for v in block if v < row)
        b = sum(1 << (v - row) for v in block if v >= row)
        if t and b:
            if t != b:
                raise ValueError("diagram is not mirror-symmetric")
            through.add(t)
        if t:
            top.add(t)
        if b:
            bottom.add(b)
    if top != bottom:
        raise ValueError("diagram is not mirror-symmetric")
    blocks = tuple(sorted(top, key=lambda m: m & -m))
    if isinstance(diagram, Z2Diagram):
        pairs = [{v, v ^ 1} for v in range(row)]
        fixed = tuple(
            all(pair <= set(points(m)) or not pair & set(points(m)) for pair in pairs)
            for m in blocks
        )
    else:
        fixed = (True,) * len(blocks)
    return RowView(blocks, tuple(i for i, m in enumerate(blocks) if m in through), fixed)


def product_entry(du, dv, target: int) -> Poly:
    prod, loops = du.multiply(dv)
    return Poly.monomial(loops) if prod.propagating_number() == target else Poly.zero()


@pytest.mark.parametrize("profile", PROFILES, ids=str)
def test_gram_entries_match_products(profile):
    gram = build_gram(*profile)
    target = gram.through_count()
    for du, row in zip(gram.diagrams, gram.entries):
        assert row == tuple(product_entry(du, dv, target) for dv in gram.diagrams)


@pytest.mark.parametrize("profile", PROFILES, ids=str)
def test_poset_matches_coarsening_oracle(profile):
    gram = build_gram(*profile)
    poset = coarsening_poset(gram)
    diagrams = gram.diagrams
    for du, row in zip(diagrams, poset.leq):
        assert row == tuple(diagram_coarser_or_equal(du, dv) for dv in diagrams)


@pytest.mark.parametrize("profile", PROFILES, ids=str)
def test_basis_order_extends_the_poset(profile):
    # _zeta_inverse solves in basis order, which needs leq upper triangular
    leq = coarsening_poset(build_gram(*profile)).leq
    assert all(u <= v for u, row in enumerate(leq) for v, below in enumerate(row) if below)


@pytest.mark.parametrize("profile", PROFILES, ids=str)
def test_role_swaps_match_oracle(profile):
    # role_swaps answers in doubled coordinates; the oracle counts a plain
    # swap of t blocks as (t, 0), which the family maps to (0, t)
    dec = reduced_decomposition(*profile)
    diagrams = dec.gram.diagrams
    to_doubled = dec.gram.family.to_doubled
    for _, members in dec.cells:
        swaps = role_swaps(dec.gram, members)
        for a, u in enumerate(members):
            for b, v in enumerate(members):
                want = swap_pair_parameters(diagrams[u], diagrams[v])
                if want is not None:
                    want = to_doubled(*want, 0, 0)[:2]
                assert swaps.get((a, b)) == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(K4_PROFILES), st.data())
def test_random_k4_entries_match_products(profile, data):
    gram = gram_of(*profile)
    n = gram.dimension()
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    target = gram.through_count()
    assert gram.entries[u][v] == product_entry(gram.diagrams[u], gram.diagrams[v], target)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(K4_PROFILES), st.data())
def test_random_k4_poset_matches_coarsening_oracle(profile, data):
    gram = gram_of(*profile)
    poset = poset_of(gram)
    diagrams = gram.diagrams
    u = data.draw(st.integers(0, len(diagrams) - 1))
    v = data.draw(st.integers(0, len(diagrams) - 1))
    assert poset.leq[u][v] == diagram_coarser_or_equal(diagrams[u], diagrams[v])


def test_row_view_of_plain_diagram():
    # through block {1,3 | 1',3'}, horizontal blocks {2}, {2'}
    d = make_diagram(PartitionDiagram, 3, [[0, 2, 3, 5], [1], [4]])
    # plain blocks count as flip-fixed: plain diagrams are the flip-fixed slice
    assert d.row_view() == RowView(blocks=(0b101, 0b010), through=(0,), fixed=(True, True))
    assert d.row_view() is d.row_view()


def test_row_view_rejects_asymmetric_diagram():
    with pytest.raises(ValueError):
        make_diagram(PartitionDiagram, 2, [[0, 3], [1, 2]]).row_view()
    with pytest.raises(ValueError):
        make_diagram(PartitionDiagram, 2, [[0, 1], [2], [3]]).row_view()


@pytest.mark.parametrize("profile", PROFILES, ids=str)
def test_row_view_from_masks_matches_the_oracle(profile):
    # a diagram built from its masks has no assembled view, so row_view()
    # reads them; products are not mirror-symmetric in general
    diagrams = build_gram(*profile).diagrams
    for d in diagrams:
        rebuilt = type(d).from_masks(d.k, d.masks)
        assert rebuilt.row_view() == row_view_reference(d) == d.row_view()
    for du in diagrams[:6]:
        for dv in diagrams[-6:]:
            prod, _ = du.multiply(dv)
            try:
                want = row_view_reference(prod)
            except ValueError:
                with pytest.raises(ValueError):
                    prod.row_view()
            else:
                assert prod.row_view() == want


def even_mask_flags(diagram):
    """The flip-fixed flags of `diagram`'s row blocks and its `block_types`,
    from the mask formula alone: the oracle for the readers of
    `Diagram.flip`. Every plain block is flip-fixed, and a doubled block m
    is when (m & even) << 1 | (m >> 1) & even == m, with even = 0b0101...01
    the mask of the even points below the row length (row blocks) or twice
    it (whole blocks)."""
    row = diagram.per_fibre * diagram.k
    top = (1 << row) - 1
    row_blocks = [m & top for m in diagram.masks if m & top]
    through = [bool(m & top and m >> row) for m in diagram.masks]
    if diagram.per_fibre == 1:
        return (True,) * len(row_blocks), [(t, True) for t in through]

    def fixed(m, points):
        even = ((1 << points) - 1) // 3
        return (m & even) << 1 | (m >> 1) & even == m

    return (
        tuple(fixed(m, row) for m in row_blocks),
        [(t, fixed(m, 2 * row)) for t, m in zip(through, diagram.masks)],
    )


@pytest.mark.parametrize("profile", VERIFY_K3_PROFILES, ids=str)
def test_flip_flags_equal_the_even_mask_oracle(profile):
    # the basis diagrams keep the view their family assembled; a diagram
    # rebuilt from its masks computes it with its class's `flip`
    for _, diagram in enumerate_diagrams(*profile):
        rebuilt = type(diagram).from_masks(diagram.k, diagram.masks)
        fixed, types = even_mask_flags(diagram)
        for d in (diagram, rebuilt):
            assert d.row_view().fixed == fixed
            assert block_types(d) == types
