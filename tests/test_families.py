"""The per-family spec: profile windows, dimensions, phi and its atoms, and
the map that makes the plain partition family the flip-fixed slice of the
doubled formulas."""

import itertools

import pytest

from diagram_gram.diagrams import PartitionDiagram
from diagram_gram.families import FAMILIES, profile_of
from diagram_gram.gram import (
    DiagramKey,
    WindowError,
    build_gram,
    check_window,
    enumerate_diagrams,
    projected_dimension,
)
from diagram_gram.partitions import set_partitions
from diagram_gram.reduction import diagram_coarser_or_equal
from diagram_gram.semisimplicity import admissible_profiles
from diagram_gram.stirling import coarser_profile_counts
from diagram_gram.z2diagrams import Z2Diagram, top_index
from test_partitions import make_diagram, part_of
from test_row_view import row_view_reference

CASES = [
    (algebra, k)
    for algebra in FAMILIES
    for k in range(1, (4 if algebra == "partition" else 3) + 1)
]


def accepted_profiles(algebra, k):
    out = set()
    for s1 in range(-1, k + 3):
        for s2 in range(-1, k + 3):
            try:
                check_window(algebra, k, s1, s2)
            except WindowError:
                continue
            out.add((s1, s2))
    return out


@pytest.mark.parametrize("algebra, k", CASES, ids=str)
def test_profile_set_is_the_window(algebra, k):
    profiles = FAMILIES[algebra].profiles(k)
    assert len(set(profiles)) == len(profiles)
    assert set(profiles) == accepted_profiles(algebra, k)
    assert admissible_profiles(algebra, k) == profiles


@pytest.mark.parametrize("algebra, k", CASES, ids=str)
def test_projected_dimension_counts_the_basis(algebra, k):
    for s1, s2 in FAMILIES[algebra].profiles(k):
        assert projected_dimension(algebra, k, s1, s2) == len(
            enumerate_diagrams(algebra, k, s1, s2)
        )


@pytest.mark.parametrize("algebra, k", CASES, ids=str)
def test_phi_is_the_product_of_its_atoms(algebra, k):
    for profile in FAMILIES[algebra].profiles(k):
        gram = build_gram(algebra, k, *profile)
        for key in gram.keys:
            phi = gram.phi(key)
            s1, s2, r1, r2 = gram.doubled(key)
            for x in range(-3, 9):
                value = 1
                for j in range(r1):
                    value *= x * x - x - 2 * (s1 + j)
                for l in range(r2):
                    value *= x - s2 - l
                assert phi.eval_at(x) == value
            assert phi.degree() == gram.diagonal_degree(key)


def test_plain_spec_reads_the_doubled_formulas_at_the_slice():
    plain = FAMILIES["partition"]
    for s in range(6):
        assert plain.through_count(s, 0) == s
        for r in range(6):
            assert plain.to_doubled(s, 0, r, 0) == (0, s, 0, r)
    for name in ("z2", "signed"):
        family = FAMILIES[name]
        assert family.to_doubled(1, 2, 3, 4) == (1, 2, 3, 4)
        assert family.through_count(1, 2) == 4


def test_family_records():
    assert list(FAMILIES) == ["partition", "z2", "signed"]
    assert {name: f.ambient for name, f in FAMILIES.items()} == {
        "partition": "partition", "z2": "z2", "signed": "z2",
    }
    assert [name for name, f in FAMILIES.items() if f.has_rho] == ["signed"]
    with pytest.raises(AttributeError):
        FAMILIES["z2"].has_rho = True


def generate_and_filter(algebra, k):
    """Every basis of k fibres by walking every configuration of every
    profile and filtering by profile: the reference for the pruned
    `Family.configs`, keyed by profile as (key, diagram blocks) lists."""
    family = FAMILIES[algebra]
    rows = {}
    for grouping in set_partitions(range(1, k + 1)):
        choices = [
            [(role, fibers, section) for role, section in family.unit_choices(len(fibers))]
            for fibers in map(tuple, grouping)
        ]
        for units in itertools.product(*choices):
            s1, s2, r1, r2 = profile_of(units)
            if family.row_ok(k, s1, s2, r1, r2):
                key = DiagramKey(0, family.alpha(units), r1, r2)
                blocks = part_of(family.assemble(k, units)).blocks
                rows.setdefault((s1, s2), []).append((key, blocks))
    return {profile: numbered(found) for profile, found in rows.items()}


def numbered(rows, tie=lambda item: item):
    """`rows` of (key, item) sorted on the key and then on `tie(item)`, each
    key numbered from 1 within its (alpha, r1, r2) cell: the order of
    `enumerate_diagrams`."""
    rows = sorted(rows, key=lambda row: (row[0].sort_key(), tie(row[1])))
    return [
        (key._replace(i=i), item)
        for _, cell in itertools.groupby(rows, lambda row: (row[0].alpha, row[0].r1, row[0].r2))
        for i, (key, item) in enumerate(cell, 1)
    ]


@pytest.mark.parametrize(
    "algebra, k", [(algebra, k) for algebra in FAMILIES for k in range(1, 6)], ids=str
)
def test_enumeration_matches_generate_and_filter(algebra, k):
    reference = generate_and_filter(algebra, k)
    for s1, s2 in FAMILIES[algebra].profiles(k):
        basis = enumerate_diagrams(algebra, k, s1, s2, guard=10**6)
        assert [(key, part_of(d).blocks) for key, d in basis] == reference.get((s1, s2), [])


def assemble_reference(algebra, k, units):
    """The basis diagram of a configuration, assembled as a `SetPartition` of
    its points: the oracle for `Family.assemble`, which builds the row view
    and the block masks straight from the units."""
    family = FAMILIES[algebra]
    row = k if family.plain else 2 * k  # points in one row
    blocks = []
    for role, fibers, section in units:
        if family.plain:
            sides = [[i - 1 for i in fibers]]
        elif role % 2:  # flip-fixed: both points of every fiber
            sides = [[top_index(i, s) for i in fibers for s in (0, 1)]]
        else:  # a conjugate pair of blocks
            sides = [
                [top_index(i, s) for i, s in zip(fibers, section)],
                [top_index(i, 1 - s) for i, s in zip(fibers, section)],
            ]
        for top in sides:
            bottom = [v + row for v in top]
            if role < 2:
                blocks.append(top + bottom)
            else:
                blocks.extend([top, bottom])
    cls = PartitionDiagram if family.plain else Z2Diagram
    return make_diagram(cls, k, blocks)


def enumerate_reference(algebra, k, s1, s2):
    """The ordered basis from `assemble_reference`, sorted with ties broken
    on the `SetPartition` blocks and numbered within each cell: the oracle for
    `enumerate_diagrams`, whose tie key is built from the block masks."""
    family = FAMILIES[algebra]
    rows = []
    for units in family.configs(k, s1, s2):
        _, _, r1, r2 = profile_of(units)
        if family.row_ok(k, s1, s2, r1, r2):
            key = DiagramKey(0, family.alpha(units), r1, r2)
            rows.append((key, assemble_reference(algebra, k, units)))
    return numbered(rows, tie=lambda diagram: part_of(diagram).blocks)


def render_reference(diagram):
    """The text of a diagram, read off its `SetPartition`."""
    blocks = part_of(diagram).blocks
    if isinstance(diagram, PartitionDiagram):
        k = diagram.k
        return "[" + "|".join(
            "{" + ",".join(str(v + 1) if v < k else f"{v - k + 1}'" for v in b) + "}"
            for b in blocks
        ) + "]"
    half = 2 * diagram.k

    def token(v):
        w = v % half
        prime = "" if v < half else "'"
        return f"{w // 2 + 1}{prime}{'eg'[w % 2]}"

    return "{" + "|".join(",".join(map(token, b)) for b in blocks) + "}"


MASK_PROFILES = (
    [("partition", k, s, 0) for k in range(1, 6) for s in range(k + 1)]
    + [
        (algebra, k, s1, s2)
        for algebra in ("z2", "signed")
        for k in range(1, 5)
        for s1, s2 in FAMILIES[algebra].profiles(k)
    ]
    + [("z2", 5, 1, 0)]
)


@pytest.mark.parametrize("profile", MASK_PROFILES, ids=str)
def test_mask_built_basis_equals_the_set_partition_assembly(profile):
    # keys, order, masks, row view and text of every basis diagram
    basis = enumerate_diagrams(*profile, guard=10**6)
    reference = enumerate_reference(*profile)
    assert [key for key, _ in basis] == [key for key, _ in reference]
    for (_, diagram), (_, want) in zip(basis, reference):
        assert type(diagram) is type(want)
        assert diagram.masks == want.masks and diagram == want
        assert diagram.row_view() == row_view_reference(want)
        assert str(diagram) == render_reference(want)


def test_configs_walk_only_the_requested_profile():
    # the unpruned walk visits all 4.2 million set partitions of 12 fibres
    assert len(list(FAMILIES["z2"].configs(12, 12, 0))) == 1


def embed(diagram):
    """The doubled diagram that uses both points of each fibre of a plain
    diagram: vertex v becomes the points 2v and 2v+1, on either row, so
    every block is flip-fixed."""
    blocks = [[p for v in block for p in (2 * v, 2 * v + 1)] for block in part_of(diagram).blocks]
    return make_diagram(Z2Diagram, diagram.k, blocks)


@pytest.mark.parametrize("k", range(1, 5))
def test_plain_diagrams_are_the_flip_fixed_slice_of_doubled_ones(k):
    # both coarsening oracles give a plain diagram the answers of its
    # embedding, whose conjugate-pair counts are all 0
    for s in range(k + 1):
        diagrams = [d for _, d in enumerate_diagrams("partition", k, s)]
        embedded = [embed(d) for d in diagrams]
        for d, e in zip(diagrams, embedded):
            counts = coarser_profile_counts(d)
            assert coarser_profile_counts(e) == {(0, q): n for q, n in counts.items()}
        for (a, ea), (b, eb) in itertools.product(zip(diagrams, embedded), repeat=2):
            assert diagram_coarser_or_equal(ea, eb) == diagram_coarser_or_equal(a, b)
