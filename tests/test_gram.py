import itertools
from collections import Counter
from functools import lru_cache

import pytest

from diagram_gram.diagrams import PartitionDiagram
from diagram_gram.families import FAMILIES
from diagram_gram.gram import (
    ResourceGuardError,
    WindowError,
    _fibre_map,
    _join,
    _point_permutations,
    _through_image,
    build_gram,
    count_row_configs,
    enumerate_diagrams,
    projected_dimension,
    row_partition_groups,
)
from diagram_gram.polynomials import Poly
from diagram_gram.reduction import reduced_decomposition
from diagram_gram.semisimplicity import admissible_profiles
from diagram_gram.stirling import binomial
from diagram_gram.z2diagrams import Z2Diagram, top_index
from test_partitions import block_of, make_diagram, part_of, restrict
from test_reduction import PROFILES


def standard_diagram(alpha, k: int, algebra: str = "z2"):
    """Contiguous-interval diagram realizing the shape `alpha`.

    Fibers are consumed left to right in role order (paired through, fixed
    through, paired horizontal, fixed horizontal), with conjugate-pair units
    taking the all-e section.
    """
    family = FAMILIES[algebra]
    if len(alpha) != len(family.alpha_roles) or sum(map(sum, alpha)) != k:
        raise ValueError(f"shape {alpha} is not a {algebra} shape of weight {k}")
    for part in alpha:
        if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
            raise ValueError(f"shape parts must be weakly decreasing, got {alpha}")
    units = []
    nxt = 1
    for role, part in zip(family.alpha_roles, alpha):
        for size in part:
            units.append((role, tuple(range(nxt, nxt + size)), (0,) * size))
            nxt += size
    return family.assemble(k, units)


def fibre_permutation(gram, sigma):
    """The index permutation of the basis under the fibre permutation sigma.

    sigma is a permutation of 0..k-1, fibre i going to sigma[i] (see
    `gram._fibre_map`). Entry u of the result is the index of the image of
    diagram u. Each family's basis is a union of orbits, since a profile
    and a signed row's counts do not see the order of the fibres; an image
    outside the basis raises KeyError.
    """
    (perm,) = _point_permutations(gram.diagrams, [_fibre_map(gram.diagrams, gram.k, sigma)])
    return perm


def underlying_partition(diagram):
    """Shape tuple of a mirror-symmetric diagram: sorted class sizes by role;
    the inverse of `standard_diagram` on shapes."""
    if isinstance(diagram, PartitionDiagram):
        k, part = diagram.k, part_of(diagram)
        top = restrict(part, range(k))
        if top != restrict(part, range(k, 2 * k)):
            raise ValueError("diagram is not mirror-symmetric")
        through, horiz = [], []
        for block in top.blocks:
            full = block_of(part, block[0])
            (through if full[-1] >= k else horiz).append(len(block))
        return (tuple(sorted(through, reverse=True)), tuple(sorted(horiz, reverse=True)))
    if not isinstance(diagram, Z2Diagram):
        raise TypeError(f"unsupported diagram type {type(diagram).__name__}")
    diagram.row_view()  # raises ValueError unless mirror-symmetric
    half, part = 2 * diagram.k, part_of(diagram)
    top = restrict(part, range(half))
    sizes = {"s1": [], "s2": [], "r1": [], "r2": []}
    for bi, block in enumerate(top.blocks):
        conj = top.block_index[block[0] ^ 1]
        if conj < bi:
            continue  # one count per conjugate pair
        is_through = block_of(part, block[0])[-1] >= half
        if conj == bi:
            sizes["s2" if is_through else "r2"].append(len(block) // 2)
        else:
            sizes["s1" if is_through else "r1"].append(len(block))
    return tuple(tuple(sorted(sizes[r], reverse=True)) for r in ("s1", "s2", "r1", "r2"))


def test_window_validation():
    with pytest.raises(WindowError):
        enumerate_diagrams("partition", 2, 3)
    with pytest.raises(WindowError):
        enumerate_diagrams("z2", 2, 2, 1)
    with pytest.raises(WindowError):
        enumerate_diagrams("signed", 3, 2, 1)  # s1+s2 must stay below k
    with pytest.raises(WindowError):
        enumerate_diagrams("nope", 2, 1)  # unknown algebra
    with pytest.raises(WindowError):
        enumerate_diagrams("partition", 0, 0)


def test_resource_guard():
    with pytest.raises(ResourceGuardError):
        enumerate_diagrams("z2", 6, 0, 0, 100)


def test_partition_small_counts():
    assert len(enumerate_diagrams("partition", 1, 1)) == 1
    assert len(enumerate_diagrams("partition", 1, 0)) == 1
    assert len(enumerate_diagrams("partition", 3, 0)) == 5   # Bell(3)
    assert len(enumerate_diagrams("partition", 3, 1)) == 10
    assert len(enumerate_diagrams("partition", 4, 0)) == 15  # Bell(4)


def test_published_cell_structure():
    basis = enumerate_diagrams("signed", 3, 1, 0)
    assert len(basis) == 34
    cells = Counter((key.r1, key.r2) for key, _ in basis)
    assert cells == {(0, 0): 4, (0, 1): 9, (1, 0): 12, (1, 1): 6, (2, 0): 3}
    by_alpha = Counter((key.alpha, key.r1, key.r2) for key, _ in basis)
    assert by_alpha[(((2,), (), (), (1,)), 0, 1)] == 6
    assert by_alpha[(((1,), (), (), (2,)), 0, 1)] == 3
    assert by_alpha[(((2,), (), (1,), ()), 1, 0)] == 6
    assert by_alpha[(((1,), (), (2,), ()), 1, 0)] == 6
    assert by_alpha[(((1,), (), (1, 1), ()), 2, 0)] == 3
    # larger-leading-part shapes come first inside each edge profile
    order = [key.alpha for key, _ in basis]
    assert order.index(((2,), (), (), (1,))) < order.index(((1,), (), (), (2,)))


def test_signed_subset_of_ambient():
    for k in (1, 2, 3):
        for s1, s2 in admissible_profiles("signed", k):
            ambient = {d for _, d in enumerate_diagrams("z2", k, s1, s2)}
            for _, d in enumerate_diagrams("signed", k, s1, s2):
                assert d in ambient


def test_keys_are_sorted_and_cell_ordinals_start_at_one():
    for algebra in ("partition", "z2", "signed"):
        for k in (1, 2, 3):
            for s1, s2 in admissible_profiles(algebra, k):
                keys = [key for key, _ in enumerate_diagrams(algebra, k, s1, s2)]
                assert keys == sorted(keys, key=lambda key: key.sort_key())
                seen = Counter()
                for key in keys:
                    seen[(key.alpha, key.r1, key.r2)] += 1
                    assert key.i == seen[(key.alpha, key.r1, key.r2)]


def test_no_duplicate_diagrams():
    for algebra in ("partition", "z2", "signed"):
        for k in (1, 2, 3):
            for s1, s2 in admissible_profiles(algebra, k):
                diagrams = [d for _, d in enumerate_diagrams(algebra, k, s1, s2)]
                assert len(set(diagrams)) == len(diagrams)


def test_projected_dimension_matches_enumeration():
    for algebra in ("partition", "z2", "signed"):
        for k in (1, 2, 3):
            for s1, s2 in admissible_profiles(algebra, k):
                assert projected_dimension(algebra, k, s1, s2) == len(
                    enumerate_diagrams(algebra, k, s1, s2)
                )
    assert projected_dimension("z2", 4, 0, 0) == 164


@lru_cache(maxsize=None)
def count_row_configs_recursive(k, s1, s2, r1, r2):
    """Row configurations counted by recursion over the unit containing
    the smallest unplaced fiber; a conjugate-pair unit of size m carries
    2**(m-1) sign choices."""
    if min(s1, s2, r1, r2) < 0:
        return 0
    if k == 0:
        return 1 if (s1, s2, r1, r2) == (0, 0, 0, 0) else 0
    total = 0
    for m in range(1, k + 1):
        ways = binomial(k - 1, m - 1)
        epair = ways * 2 ** (m - 1)
        total += epair * count_row_configs_recursive(k - m, s1 - 1, s2, r1, r2)
        total += epair * count_row_configs_recursive(k - m, s1, s2, r1 - 1, r2)
        total += ways * count_row_configs_recursive(k - m, s1, s2 - 1, r1, r2)
        total += ways * count_row_configs_recursive(k - m, s1, s2, r1, r2 - 1)
    return total


@pytest.mark.parametrize("k", range(9))
def test_row_config_closed_form_matches_the_recursion(k):
    for args in itertools.product(range(-1, k + 2), repeat=4):
        assert count_row_configs(k, *args) == count_row_configs_recursive(k, *args), args


def test_standard_diagram_roundtrip():
    for algebra in ("z2", "partition"):
        for k in (1, 2, 3):
            for s1, s2 in admissible_profiles("z2" if algebra == "z2" else "partition", k):
                for key, _ in enumerate_diagrams(algebra, k, s1, s2):
                    d = standard_diagram(key.alpha, k, algebra=algebra)
                    assert underlying_partition(d) == key.alpha


def test_standard_diagram_validates_shape():
    with pytest.raises(ValueError):
        standard_diagram(((2,), (), (), ()), 3)  # weight mismatch
    with pytest.raises(ValueError):
        standard_diagram(((1, 2), (), (), ()), 3)  # not weakly decreasing


def test_underlying_partition_requires_symmetry():
    k = 2
    # top pairs fiber 1 to bottom fiber 2: halves differ in through pairing
    blocks = [
        [top_index(1, 0), 2 * k + top_index(2, 0)],
        [top_index(1, 1), 2 * k + top_index(2, 1)],
        [top_index(2, 0), 2 * k + top_index(1, 0)],
        [top_index(2, 1), 2 * k + top_index(1, 1)],
    ]
    d = make_diagram(Z2Diagram, k, blocks)
    with pytest.raises(ValueError):
        underlying_partition(d)


def test_conjugation_orbits_match_cells():
    """Each shape cell is a single orbit under fiber permutation and flips."""
    k = 3
    group = list(itertools.product(itertools.permutations(range(1, k + 1)),
                                   itertools.product((0, 1), repeat=k)))

    def act(diagram, sigma, eps):
        mapping = {}
        for i in range(1, k + 1):
            for s in (0, 1):
                src = top_index(i, s)
                dst = top_index(sigma[i - 1], s ^ eps[i - 1])
                mapping[src] = dst
                mapping[src + 2 * k] = dst + 2 * k
        blocks = [[mapping[v] for v in block] for block in part_of(diagram).blocks]
        return make_diagram(Z2Diagram, k, blocks)

    for s1, s2 in ((1, 0), (0, 1), (1, 1)):
        basis = enumerate_diagrams("z2", k, s1, s2)
        cells = {}
        for key, d in basis:
            cells.setdefault((key.alpha, key.r1, key.r2), set()).add(d)
        for (alpha, _r1, _r2), members in cells.items():
            seed = standard_diagram(alpha, k)
            orbit = {act(seed, sigma, eps) for sigma, eps in group}
            assert orbit == members
            # orbit size times stabilizer order equals the group order
            assert len(group) % len(members) == 0


def test_gram_basic_shape_and_diagonal():
    g = build_gram("signed", 3, 1, 0)
    assert g.dimension() == 34
    for u, key in enumerate(g.keys):
        assert g.entries[u][u] == Poly.monomial(2 * key.r1 + key.r2)
    t = build_gram("z2", 2, 0, 2)
    assert t.dimension() == 1 and t.entries[0][0] == Poly.one()
    p = build_gram("partition", 1, 0)
    assert p.dimension() == 1 and p.entries[0][0] == Poly.monomial(1)


def test_gram_entry_zero_iff_through_count_drops():
    g = build_gram("z2", 2, 1, 0)
    for u in range(g.dimension()):
        for v in range(g.dimension()):
            prod, loops = g.diagrams[u].multiply(g.diagrams[v])
            if prod.propagating_number() == 2:
                assert g.entries[u][v] == Poly.monomial(loops)
            else:
                assert g.entries[u][v].is_zero()


def fibre_generators(k):
    """(0 1) and the k-cycle i -> i+1 mod k, which generate S_k."""
    return [(1, 0, *range(2, k)), (*range(1, k), 0)] if k > 1 else [(0,)]


def swapped_diagram(diagram):
    """The doubled diagram with the e and g points of fibre 0 exchanged on
    both rows, read off the whole partition: the oracle for the e/g swap of
    `GramMatrix.generators`."""
    row = 2 * diagram.k
    blocks = [[v ^ 1 if v % row < 2 else v for v in block] for block in part_of(diagram).blocks]
    return make_diagram(Z2Diagram, diagram.k, blocks)


def dense_gram_exponents(algebra, k, s1, s2=0):
    """The exponent grid of `build_gram` with one join per pair of distinct
    row partitions and no use of the symmetries: the oracle for its
    orbit-representative rows."""
    diagrams = [diagram for _, diagram in enumerate_diagrams(algebra, k, s1, s2)]
    target = FAMILIES[algebra].through_count(s1, s2)
    views = [diagram.row_view() for diagram in diagrams]
    groups = row_partition_groups(views)
    n = len(diagrams)
    rows = [[None] * n for _ in range(n)]
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
            for u in us:
                for v in by_image.get(_through_image(views[u], joined), ()):
                    rows[u][v] = rows[v][u] = loops
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize(
    "profile",
    PROFILES
    + [("z2", 4, s1, s2) for s1, s2 in admissible_profiles("z2", 4)]
    + [("signed", 4, s1, s2) for s1, s2 in admissible_profiles("signed", 4)],
    ids=str,
)
def test_gram_rows_match_the_dense_pair_loop(profile):
    assert build_gram(*profile).exponents == dense_gram_exponents(*profile)


def test_join_of_a_partition_with_itself_is_that_partition():
    # the diagonal join is read off, not merged block by block
    gram = build_gram("z2", 1000, 1000, 0, 10)
    (view,) = [d.row_view() for d in gram.diagrams]
    assert _join(view.blocks, view.blocks) == list(view.blocks)
    assert gram.exponents == ((0,),)
    for view in (d.row_view() for d in build_gram("z2", 3, 1, 0).diagrams):
        joined = _join(view.blocks, view.blocks)
        assert joined == list(view.blocks)


def permuted_diagram(diagram, sigma):
    """The diagram with every vertex of fibre i moved to fibre sigma[i],
    on both rows, keeping e and g apart: the oracle for
    `fibre_permutation`, read off the whole partition, not its row view."""
    k, per = diagram.k, diagram.per_fibre  # points per fibre in one row
    row = per * k

    def image(v):
        point = v % row
        return v - point + per * sigma[point // per] + point % per

    blocks = [[image(v) for v in block] for block in part_of(diagram).blocks]
    return make_diagram(type(diagram), k, blocks)


@pytest.mark.parametrize("profile", PROFILES, ids=str)
def test_fibre_permutations_act_on_the_basis(profile):
    gram = build_gram(*profile)
    k, n = gram.k, gram.dimension()
    perms = {sigma: fibre_permutation(gram, sigma) for sigma in itertools.permutations(range(k))}
    for perm in perms.values():
        assert sorted(perm) == list(range(n))
    assert perms[tuple(range(k))] == tuple(range(n))
    # pi(sigma tau) = pi(sigma) pi(tau), tau applied first
    for sigma, perm in perms.items():
        for tau in fibre_generators(k):
            composed = tuple(sigma[i] for i in tau)
            assert perms[composed] == tuple(perm[i] for i in perms[tau])
    index = {diagram: u for u, diagram in enumerate(gram.diagrams)}
    for sigma in fibre_generators(k):
        expected = tuple(index[permuted_diagram(d, sigma)] for d in gram.diagrams)
        assert perms[sigma] == expected


@pytest.mark.parametrize("profile", PROFILES, ids=str)
def test_gram_and_reduced_matrices_are_fibre_invariant(profile):
    decomposition = reduced_decomposition(*profile)
    gram, reduced = decomposition.gram, decomposition.reduced
    grid = gram.exponents
    rho = set(dict(decomposition.cells).get(("rho",), ()))
    perms = [fibre_permutation(gram, sigma) for sigma in fibre_generators(gram.k)]
    if gram.algebra != "partition":
        # the e/g swap at fibre 0 maps each doubled basis onto itself
        index = {diagram: u for u, diagram in enumerate(gram.diagrams)}
        perms.append(tuple(index[swapped_diagram(d)] for d in gram.diagrams))
    # the generators the pipeline copies rows by, in `GramMatrix.generators`
    if gram.k > 1:
        assert list(gram.generators) == perms
    else:
        assert list(gram.generators) == perms[1:]
    for perm in perms:
        for u, v in itertools.product(range(gram.dimension()), repeat=2):
            assert grid[perm[u]][perm[v]] == grid[u][v]
            assert reduced[perm[u]][perm[v]] == reduced[u][v]
        assert {perm[u] for u in rho} == rho


def test_projected_dimension_stops_above_its_cap():
    for algebra, k, s1, s2 in PROFILES:
        dim = projected_dimension(algebra, k, s1, s2)
        for cap in range(dim + 2):
            partial = projected_dimension(algebra, k, s1, s2, cap=cap)
            if cap >= dim:
                assert partial == dim
            else:
                assert cap < partial <= dim

