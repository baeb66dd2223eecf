import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagram_gram import determinant
from diagram_gram.cli import main
from diagram_gram.determinant import (
    DetResult,
    _bareiss_int,
    _component_orbits,
    _components,
    _eliminate,
    _hook_dimension,
    _independent,
    _interpolate,
    _isotypic_bases,
    _partitions,
    _restricted,
    _transpositions,
    det_blocks,
    det_direct,
    det_isotypic,
)
from diagram_gram.gram import build_gram, projected_dimension
from diagram_gram.polynomials import Poly, linear_factor, phi_atoms, phi_z2
from diagram_gram.reduction import BlockDecomposition, reduced_decomposition
from diagram_gram.semisimplicity import admissible_profiles
from test_gram import fibre_generators, fibre_permutation
from test_reduction import K4_PROFILES, PROFILES


def _bareiss_reference(rows):
    """Fraction-free determinant of an integer matrix, row by row."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[i][i]
        for r in range(i + 1, n):
            mr, mi, factor = m[r], m[i], m[r][i]
            for c in range(i + 1, n):
                mr[c] = (piv * mr[c] - factor * mi[c]) // prev
            mr[i] = 0
        prev = piv
    return sign * m[n - 1][n - 1]


def newton_reference(xs, ys):
    """Newton interpolation through (xs[i], ys[i]) over the rationals."""
    n = len(xs)
    coeffs = [Fraction(y) for y in ys]  # divided differences, built in place
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    poly = Poly.zero()
    basis = Poly.one()
    for i in range(n):
        poly = poly + basis.scalar_mul(coeffs[i])
        basis = basis * linear_factor(xs[i])
    return poly


def det_direct_reference(matrix):
    """The determinant from the full matrix at the points 0..Σh_i, h_i the
    highest power of x in row i: the oracle for `det_direct`."""
    bound = 0
    for row in matrix:
        degrees = [p.degree() for p in row if not p.is_zero()]
        if not degrees:
            return Poly.zero()
        bound += max(degrees)
    xs = list(range(bound + 1))
    ys = [_bareiss_reference([[p.eval_at(x) for p in row] for row in matrix]) for x in xs]
    return newton_reference(xs, ys)


# `determinant._PACKED_BITS` forcing each point plan of `_eliminate`
PLANS = {"packed": math.inf, "window": 0}


def det_direct_by_plan(matrix, plan):
    """`det_direct` with every component evaluated by `plan`, after
    checking that each interpolation took that plan."""
    packed = []
    interpolate = determinant._interpolate

    def recorded(xs, ys, width=None):
        packed.append(width is not None)
        return interpolate(xs, ys, width)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(determinant, "_PACKED_BITS", PLANS[plan])
        patch.setattr(determinant, "_interpolate", recorded)
        det = det_direct(matrix)
    assert set(packed) <= {plan == "packed"}
    return det


def test_identity_and_diagonal():
    n = 4
    ident = tuple(
        tuple(Poly.one() if i == j else Poly.zero() for j in range(n)) for i in range(n)
    )
    assert det_direct(ident) == Poly.one()
    diag = (
        (Poly.monomial(1), Poly.zero()),
        (Poly.zero(), Poly([-2, -1, 1])),
    )
    assert det_direct(diag) == Poly([0, -2, -1, 1])  # x^3-x^2-2x
    assert det_direct(()) == Poly.one()


def test_zero_row_shortcut():
    m = ((Poly.zero(), Poly.zero()), (Poly.zero(), Poly.monomial(1)))  # zero row and column
    assert det_direct(m) == Poly.zero()


def test_non_square_rejected():
    with pytest.raises(ValueError):
        det_direct(((Poly.one(),), (Poly.one(), Poly.monomial(1))))


def test_2x2_cross_check():
    a, b, d = Poly([1, 1]), Poly([0, 2]), Poly([1, 0, 1])
    assert det_direct(((a, b), (b, d))) == a * d - b * b


@pytest.mark.parametrize(
    "matrix",
    [
        ((Poly.zero(), Poly.zero()), (Poly.one(), Poly.monomial(1))),
        ((Poly([1, 1]), Poly([0, 2])), (Poly([3]), Poly([1, 0, 1]))),
        # (0, 1) and (1, 0) are equal but distinct objects; (1, 2) and (2, 1) differ
        ((Poly([1]), Poly([0, 2]), Poly.zero()),
         (Poly([0, 2]), Poly([1]), Poly([0, 3])),
         (Poly.zero(), Poly([0, 2]), Poly([1]))),
    ],
)
def test_det_direct_rejects_an_asymmetric_matrix(matrix):
    with pytest.raises(ValueError, match="symmetric"):
        det_direct(matrix)


def test_published_determinant_factorization():
    gram = build_gram("signed", 3, 1, 0)
    dec = reduced_decomposition("signed", 3, 1, 0)
    direct = det_direct(gram.entries)
    reduced = det_direct(dec.reduced)
    blocks = det_blocks(dec)
    assert direct == reduced == blocks.poly
    assert direct.is_monic() and direct.is_integral()
    assert direct.degree() == sum(2 * key.r1 + key.r2 for key in gram.keys)
    # det G == x^9 * det(paired-edge block) * det(tail block)
    factors = dict(blocks.factored)
    assert factors[Poly.monomial(1)] == 9
    pair_det = det_direct(dec.block(("cell", 1, 0)))
    rho_det = det_direct(dec.block(("rho",)))
    assert direct == Poly.monomial(9) * pair_det * rho_det
    # the paired-edge block factors as ((x^2-x-2)^2 - 4)^6
    q = phi_z2(1, 0, 1, 0)
    pair = q * q - Poly([4])
    expected = Poly.one()
    for _ in range(6):
        expected = expected * pair
    assert pair_det == expected


def test_det_blocks_keeps_diagonal_atoms_symbolic():
    dec = reduced_decomposition("z2", 3, 1, 1)
    result = det_blocks(dec)
    assert "poly" not in vars(result)  # det_blocks leaves the factors unmultiplied
    assert result.poly == det_direct(dec.gram.entries)
    assert all(mult >= 1 for _, mult in result.factored)



def test_det_blocks_follows_a_planted_coupling():
    # det_blocks multiplies the components of the whole pattern, so an
    # entry joining two cells is not dropped
    dec = reduced_decomposition("z2", 3, 1, 0)
    (_, first), (_, second) = dec.cells[:2]
    u, v = first[0], second[0]
    rows = [list(row) for row in dec.reduced]
    rows[u][v] = rows[v][u] = Poly.one()
    nonzero = [set(row) for row in dec.nonzero]
    nonzero[u].add(v)
    nonzero[v].add(u)
    planted = BlockDecomposition(
        dec.gram,
        dec.transform,
        tuple(map(tuple, rows)),
        tuple(tuple(sorted(row)) for row in nonzero),
        dec.cells,
        dec.offblock_violations,
    )
    assert det_blocks(planted).poly == det_direct(planted.reduced)
    assert det_blocks(planted).poly != det_blocks(dec).poly


def det_blocks_reference(decomposition):
    """`det_blocks` with one determinant per connected component, no
    component read from another: the reference for the orbit-wise memo."""
    gram, reduced = decomposition.gram, decomposition.reduced
    rho = set(dict(decomposition.cells).get(("rho",), ()))
    factors = Counter()
    for comp in _components(decomposition.nonzero):
        if len(comp) > 1:
            block = tuple(tuple(reduced[i][j] for j in comp) for i in comp)
            if rho.issuperset(comp):
                factors[det_isotypic(block, gram.k, _restricted(gram, comp))] += 1
            else:
                factors[det_direct(block)] += 1
            continue
        (u,) = comp
        entry, key = reduced[u][u], gram.keys[u]
        if entry == gram.phi(key):
            factors.update(phi_atoms(*gram.doubled(key)))
        else:
            factors[entry] += 1
    return DetResult.from_counts(factors)


@pytest.mark.parametrize("profile", PROFILES + K4_PROFILES, ids=str)
def test_det_blocks_matches_the_per_component_reference(profile):
    decomposition = reduced_decomposition(*profile)
    assert det_blocks(decomposition).factored == det_blocks_reference(decomposition).factored


def test_det_blocks_checks_each_component_it_reads_from_the_memo():
    # an entry changed in one coupled component, pattern kept: its orbit
    # mates no longer have its block, so it gets its own determinant
    dec = reduced_decomposition("z2", 4, 1, 0)
    u, v = next(c for c in _components(dec.nonzero) if len(c) == 2)
    rows = [list(row) for row in dec.reduced]
    rows[u][v] = rows[v][u] = rows[u][v] + Poly.one()
    planted = BlockDecomposition(
        dec.gram, dec.transform, tuple(map(tuple, rows)), dec.nonzero, dec.cells,
        dec.offblock_violations,
    )
    assert det_blocks(planted).factored == det_blocks_reference(planted).factored
    assert det_blocks(planted).factored != det_blocks(dec).factored


def test_det_blocks_takes_one_determinant_per_orbit_of_components():
    decomposition = reduced_decomposition("z2", 4, 1, 0)
    components = _components(decomposition.nonzero)
    coupled = [i for i, c in enumerate(components) if len(c) > 1]
    orbits = _component_orbits(decomposition.reduced, components, decomposition.gram.generators)
    assert (len(coupled), len({orbits.find(i) for i in coupled})) == (81, 8)
    # with no generators, every component is its own orbit
    alone = _component_orbits(decomposition.reduced, components, ())
    assert len({alone.find(i) for i in coupled}) == len(coupled)


@pytest.mark.parametrize("profile", PROFILES, ids=str)
def test_det_direct_matches_the_reference_on_every_profile(profile):
    decomposition = reduced_decomposition(*profile)
    gram, reduced = decomposition.gram, decomposition.reduced
    if gram.dimension() <= 50:
        matrices = [gram.entries, reduced]
    else:
        # det_direct takes from seconds to many minutes on the whole
        # matrices of the z2 and signed k=4 profiles (n = 73..244); check
        # the coupled components of the reduced matrix instead, and the
        # whole matrices against det_isotypic below
        matrices = [
            tuple(tuple(reduced[i][j] for j in comp) for i in comp)
            for comp in _components(decomposition.nonzero)
            if len(comp) > 1
        ]
    for matrix in matrices:
        det = det_direct_reference(matrix)
        assert det_direct(matrix) == det
        assert det_direct_by_plan(matrix, "packed") == det == det_direct_by_plan(matrix, "window")


def fibre_pair(gram):
    """π((0 1)) and π((0 1 ... k-1)) by `fibre_permutation`, read off the
    diagrams, not `gram.generators`; None at k = 1, where there are none."""
    if gram.k == 1:
        return None
    return tuple(fibre_permutation(gram, sigma) for sigma in fibre_generators(gram.k))


def _isotypic_checked(matrix, k, generators):
    """`det_isotypic`, after checking that it splits the matrix: the
    isotypic blocks exist and add up to its size."""
    assert _isotypic_bases(matrix, k, generators) is not None
    return det_isotypic(matrix, k, generators)


@pytest.mark.parametrize(
    "profile", [p for p in PROFILES if projected_dimension(*p) <= 118], ids=str
)
def test_det_isotypic_matches_det_direct_on_gram_matrices(profile):
    gram = build_gram(*profile)
    pair = fibre_pair(gram)
    if gram.k == 1 or gram.dimension() == 1:
        assert _isotypic_bases(gram.entries, gram.k, pair) is None
        assert det_isotypic(gram.entries, gram.k, pair) == det_direct(gram.entries)
    else:
        assert _isotypic_checked(gram.entries, gram.k, pair) == det_direct(gram.entries)


@pytest.mark.parametrize(
    "profile", [p for p in PROFILES if p[1] == 4 and p[0] != "partition"], ids=str
)
def test_det_isotypic_matches_det_blocks_on_the_k4_gram_matrices(profile):
    decomposition = reduced_decomposition(*profile)
    gram = decomposition.gram
    assert _isotypic_checked(gram.entries, 4, fibre_pair(gram)) == det_blocks(decomposition).poly


def _rho_components(decomposition):
    """The coupled components of the reduced matrix inside its rho cell."""
    rho = set(dict(decomposition.cells).get(("rho",), ()))
    return [c for c in _components(decomposition.nonzero) if len(c) > 1 and rho.issuperset(c)]


@pytest.mark.parametrize(
    "profile",
    [("signed", k, s1, s2) for k in (2, 3, 4) for s1, s2 in admissible_profiles("signed", k)],
    ids=str,
)
def test_det_isotypic_matches_det_direct_on_signed_rho_components(profile):
    decomposition = reduced_decomposition(*profile)
    reduced, k = decomposition.reduced, decomposition.gram.k
    for comp in _rho_components(decomposition):
        block = tuple(tuple(reduced[i][j] for j in comp) for i in comp)
        pair = _restricted(decomposition.gram, comp)
        assert _isotypic_checked(block, k, pair) == det_direct(block)


def test_signed_k4_has_coupled_rho_components():
    sizes = sorted(
        len(comp)
        for s1, s2 in admissible_profiles("signed", 4)
        for comp in _rho_components(reduced_decomposition("signed", 4, s1, s2))
    )
    assert sizes == [4, 4, 12, 12, 15, 18, 18, 28, 28, 36]


def test_isotypic_blocks_of_the_z2_k4_gram_matrix():
    # λ = (4), (3,1), (2,2), (2,1,1); (1,1,1,1) has no copy
    gram = build_gram("z2", 4, 2, 0)
    bases = _isotypic_bases(gram.entries, 4, fibre_pair(gram))
    assert [(len(ys), d) for ys, d in bases] == [(15, 1), (19, 3), (14, 2), (6, 3)]


def _stabilizer(k, groups):
    """(sigma, sign) for each permutation of 0..k-1 mapping every one of the
    disjoint ascending `groups` onto itself."""
    out = []
    for images in itertools.product(*map(itertools.permutations, groups)):
        sigma = list(range(k))
        sign = 1
        for group, image in zip(groups, images):
            for a, b in zip(group, image):
                sigma[a] = b
            sign *= (-1) ** sum(x > y for x, y in itertools.combinations(image, 2))
        out.append((tuple(sigma), sign))
    return out


def _young_terms(shape):
    """e_T = Σ_{r∈R_T} Σ_{c∈C_T} sgn(c)·rc for the tableau T of `shape`
    filled row by row, as {rc: sgn(c)}; rc applies c first. R_T and C_T
    meet only in the identity, so every pair gives its own permutation."""
    k = sum(shape)
    starts = list(itertools.accumulate(shape, initial=0))
    rows = [tuple(range(a, a + part)) for a, part in zip(starts, shape)]
    columns = [tuple(row[j] for row in rows if len(row) > j) for j in range(shape[0])]
    return {
        tuple(r[i] for i in c): sign
        for r, _ in _stabilizer(k, rows)
        for c, sign in _stabilizer(k, columns)
    }


def _group(k, generators):
    """Every sigma in S_k with its index permutation, composed breadth first
    from the generators' (sigma, index permutation) pairs; π(g∘sigma) is
    π(g)∘π(sigma), π being an action."""
    identity = tuple(range(k))
    group = {identity: tuple(range(len(generators[0][1])))}
    frontier = [identity]
    while frontier:
        reached = []
        for sigma in frontier:
            perm = group[sigma]
            for g, pg in generators:
                tau = tuple(g[i] for i in sigma)
                if tau not in group:
                    group[tau] = tuple(pg[i] for i in perm)
                    reached.append(tau)
        frontier = reached
    return group


def young_columns_reference(matrix, k, pair):
    """`_isotypic_bases` by listing S_k: every Young symmetrizer expanded
    term by term, each term's index permutation looked up in the whole
    group, composed from `pair` = π((0 1)), π((0 1 ... k-1)), and every
    shape visited."""
    n = len(matrix)
    if k == 1 or not n or pair is None:
        return None
    generators = []
    for sigma, perm in zip(fibre_generators(k), pair):
        if any(
            tuple(map(matrix[perm[u]].__getitem__, perm)) != tuple(matrix[u]) for u in range(n)
        ):
            return None
        generators.append((sigma, perm))
    group = _group(k, generators)
    bases = []
    for shape in _partitions(k):
        terms = [(group[sigma], sign) for sigma, sign in _young_terms(shape).items()]
        columns = []
        for u in range(n):
            column = Counter()
            for perm, sign in terms:
                column[perm[u]] += sign
            columns.append({i: c for i, c in column.items() if c})
        ys = _independent(columns)
        if ys:
            bases.append((ys, _hook_dimension(shape)))
    return bases if sum(len(ys) * d for ys, d in bases) == n else None


def test_isotypic_bases_match_the_listed_group():
    cases = []
    for profile in PROFILES:
        if projected_dimension(*profile) <= 300:
            gram = build_gram(*profile)
            pair = fibre_pair(gram)
            cases.append((gram.entries, gram.k, pair))
            # the composed transpositions are the fibre transpositions
            if gram.k > 1:
                for (i, j), perm in _transpositions(gram.k, *pair).items():
                    sigma = list(range(gram.k))
                    sigma[i], sigma[j] = j, i
                    assert perm == fibre_permutation(gram, tuple(sigma)), (profile, i, j)
    for k in (2, 3, 4):
        for s1, s2 in admissible_profiles("signed", k):
            decomposition = reduced_decomposition("signed", k, s1, s2)
            for comp in _rho_components(decomposition):
                block = tuple(tuple(decomposition.reduced[i][j] for j in comp) for i in comp)
                cases.append((block, k, _restricted(decomposition.gram, comp)))
    for matrix, k, pair in cases:
        bases = _isotypic_bases(matrix, k, pair)
        if len(matrix) == 1:
            # one diagram goes to det_direct
            assert bases is None
            continue
        assert bases == young_columns_reference(matrix, k, pair)


def test_det_isotypic_falls_back_where_it_cannot_split():
    gram = build_gram("z2", 3, 1, 0)
    pair = fibre_pair(gram)
    # a diagonal entry at a diagram that (0 1) moves breaks the invariance
    u = next(u for u, v in enumerate(pair[0]) if u != v)
    rows = [list(row) for row in gram.entries]
    rows[u][u] = rows[u][u] + Poly.one()
    planted = tuple(map(tuple, rows))
    assert _isotypic_bases(planted, 3, pair) is None
    det = det_isotypic(planted, 3, pair)
    assert det == det_direct(planted) != det_direct(gram.entries)
    # no generators, as for a rho component that one moves out of
    assert _isotypic_bases(gram.entries, 3, None) is None
    assert det_isotypic(gram.entries, 3, None) == det_direct(gram.entries)


@pytest.mark.parametrize("profile", PROFILES, ids=str)
def test_det_direct_split_matches_the_unsplit_elimination(profile):
    reduced = reduced_decomposition(*profile).reduced
    det = det_direct(reduced)
    if len(reduced) <= 120:
        assert det == _eliminate(reduced)
    else:
        # the unsplit elimination of z2 k=4 (1,1) and signed k=4 (1,0)
        # takes seconds to minutes over all its points; compare at a few
        for x in (-3, -1, 2, 5, 11):
            values = [[p.eval_at(x) for p in row] for row in reduced]
            assert det.eval_at(x) == _bareiss_int(values)


@st.composite
def permuted_block_diagonal_matrices(draw):
    """A symmetric block-diagonal integer polynomial matrix of up to four
    blocks of size 1 to 3, its rows and columns permuted alike, and maybe
    one row and its column set to zero."""
    entry = st.lists(st.integers(-4, 4), max_size=3).map(Poly)
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n = sum(sizes)
    rows = [[Poly.zero()] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            for j in range(i, start + size):
                rows[i][j] = rows[j][i] = draw(entry)
        start += size
    perm = draw(st.permutations(range(n)))
    matrix = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    zero_row = draw(st.booleans())
    if zero_row:
        u = draw(st.integers(0, n - 1))
        matrix[u] = [Poly.zero()] * n
        for row in matrix:
            row[u] = Poly.zero()
    return tuple(map(tuple, matrix)), zero_row


@settings(max_examples=300, deadline=None)
@given(permuted_block_diagonal_matrices())
def test_det_direct_split_matches_the_unsplit_elimination_on_random_blocks(case):
    matrix, zero_row = case
    det = det_direct(matrix)
    assert det == _eliminate(matrix) == det_direct_reference(matrix)
    if zero_row:
        assert det.is_zero()


@st.composite
def sparse_integer_matrices(draw):
    """A symmetric integer matrix with n <= 12, entries in -9..9 and at
    least 60% zeros. Where the zeros leave room it has a planted symmetric
    permutation pattern, so it is mostly nonsingular. It may have a zero
    leading block (its first pivots come from adding later indices), an
    all-zero row and column, and a duplicated row and column."""
    n = draw(st.integers(1, 12))
    duplicated = n > 1 and draw(st.booleans())
    # nonzero entries allowed; a duplicated row and column may add up to 2n more
    budget = 2 * n * n // 5 - (2 * n if duplicated else 0)
    nonzero = st.integers(-9, 9).filter(bool)
    planted = n if n <= budget else 0
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    entries = draw(st.dictionaries(cell, nonzero, max_size=max(budget - planted, 0) // 2))
    rows = [[0] * n for _ in range(n)]
    for (i, j), c in entries.items():
        rows[i][j] = rows[j][i] = c
    lead = draw(st.integers(0, n // 2))
    for i in range(lead):
        rows[i][:lead] = [0] * lead
    if planted:
        # an involution that pairs each index of the zero block with one
        # past it and fixes the rest
        others = draw(st.permutations(range(lead, n)))
        pairs = [*zip(range(lead), others), *((i, i) for i in others[lead:])]
        for i, j in pairs:
            rows[i][j] = rows[j][i] = draw(nonzero)
    zero_line = draw(st.booleans())
    if zero_line:
        u = draw(st.integers(0, n - 1))
        rows[u] = [0] * n
        for row in rows:
            row[u] = 0
    if duplicated:
        b = draw(st.integers(1, n - 1))
        rows[b] = list(rows[0])
        for row in rows:
            row[b] = row[0]
    return rows, zero_line or duplicated


@settings(max_examples=400, deadline=None)
@given(sparse_integer_matrices())
def test_bareiss_int_matches_the_row_by_row_reference(case):
    rows, singular = case
    before = [list(row) for row in rows]
    det = _bareiss_int(rows)
    assert rows == before  # the input is read, not rewritten
    assert det == _bareiss_reference(rows)
    if singular:
        assert det == 0


@st.composite
def symmetric_integer_matrices(draw):
    """A symmetric integer matrix with n <= 12 and entries in -9..9, dense
    or sparse, with some zero diagonal entries. It may have a trailing
    block that no earlier index couples to, with an all-zero diagonal and
    a nonzero off-diagonal entry, so that the pivot at its first index and
    every later diagonal entry are 0 there; a duplicated row and column; or
    no nonzero entry at all."""
    n = draw(st.integers(1, 12))
    entry = st.integers(-9, 9)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), entry)  # sparse
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entry)
    for i in draw(st.sets(st.integers(0, n - 1))):
        rows[i][i] = 0
    if n >= 2 and draw(st.booleans()):
        start = draw(st.integers(0, n - 2))
        for i in range(start, n):
            rows[i][:start] = [0] * start
            rows[i][i] = 0
            for row in rows[:start]:
                row[i] = 0
        j = draw(st.integers(start + 1, n - 1))
        rows[start][j] = rows[j][start] = draw(entry.filter(bool))
    shape = draw(st.sampled_from(["as drawn", "duplicated", "zero"]))
    if shape == "duplicated" and n >= 2:
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[b] = list(rows[a])
        for row in rows:
            row[b] = row[a]
        return rows, True
    if shape == "zero":
        return [[0] * n for _ in range(n)], True
    return rows, False


@settings(max_examples=400, deadline=None)
@given(symmetric_integer_matrices())
@example(([[0, 1], [1, 0]], False))  # no nonzero diagonal entry: index 1 is added to 0
@example(([[0, 1, 1], [1, -2, 0], [1, 0, 1]], False))  # adding index 1 would leave 0; it is subtracted
@example(([[0, 2, 1], [2, 0, 3], [1, 3, 0]], False))
@example(([[5, 0, 0], [0, 0, 4], [0, 4, 0]], False))  # a zero-diagonal trailing block
def test_bareiss_int_matches_the_reference_on_symmetric_matrices(case):
    rows, singular = case
    before = [list(row) for row in rows]
    det = _bareiss_int(rows)
    assert rows == before  # the input is read, not rewritten
    assert det == _bareiss_reference(rows)
    if singular:
        assert det == 0


@st.composite
def symmetric_row_shifted_matrices(draw):
    """A symmetric integer polynomial matrix with n <= 5, coefficients of
    either sign up to 4, 100 or 2**40 in absolute value, and a planted
    factor x^a_i in row and column i, so x^max(a_i, a_j) at (i, j) and the
    rows' lowest powers may differ; some diagonal entries may be 0, so some
    pivots are, and rows and columns 0 and n-1 may be equal, or one row and
    its column zero."""
    n = draw(st.integers(1, 5))
    shifts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    size = draw(st.sampled_from([4, 100, 2**40]))
    entry = st.lists(st.integers(-size, size), max_size=4).map(Poly)
    rows = [[Poly.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            p = draw(entry)
            rows[i][j] = rows[j][i] = Poly((0,) * max(shifts[i], shifts[j]) + p.coeffs) if p else p
    for i in draw(st.sets(st.integers(0, n - 1))):
        rows[i][i] = Poly.zero()
    shape = draw(st.sampled_from(["as drawn", "duplicated", "zero row"]))
    if shape == "duplicated" and n > 1:
        rows[n - 1] = list(rows[0])
        for row in rows:
            row[n - 1] = row[0]
    elif shape == "zero row":
        u = draw(st.integers(0, n - 1))
        rows[u] = [Poly.zero()] * n
        for row in rows:
            row[u] = Poly.zero()
    singular = shape == "zero row" or (shape == "duplicated" and n > 1)
    return tuple(map(tuple, rows)), singular


@settings(max_examples=300, deadline=None)
@given(symmetric_row_shifted_matrices())
@example((((Poly([-1, 1]), Poly([1])), (Poly([1]), Poly([-1, 1]))), False))  # x-1 on the diagonal
@example((((Poly([0, 0, 1]), Poly([0, 1])), (Poly([0, 1]), Poly.zero())), False))
# v = (1, 2): Q(0) from the kept matrix, the identity; det = x^3·(1 - x)
@example((((Poly([0, 1]), Poly([0, 0, 1])), (Poly([0, 0, 1]), Poly([0, 0, 1]))), False))
def test_det_direct_matches_the_reference_on_symmetric_matrices(case):
    matrix, singular = case
    det = det_direct(matrix)
    assert det == _eliminate(matrix) == det_direct_reference(matrix)
    assert det_direct_by_plan(matrix, "packed") == det == det_direct_by_plan(matrix, "window")
    if singular:
        assert det.is_zero()


def sylvester_hadamard(order):
    """The symmetric ±1 Hadamard matrix of `order`, a power of 2:
    H_1 = [1] and H_2m = [[H_m, H_m], [H_m, -H_m]]."""
    rows = [[1]]
    while len(rows) < order:
        rows = [row + row for row in rows] + [row + [-c for c in row] for row in rows]
    return rows


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("order", [4, 8])
def test_point_plans_where_the_determinant_meets_the_bound(plan, order):
    """|det| equals Hadamard's bound H, H² = order**order: the packed
    point's digits must still hold it."""
    rows = sylvester_hadamard(order)
    det = _bareiss_reference(rows)
    assert det * det == order**order
    matrix = tuple(tuple(Poly((c,)) for c in row) for row in rows)
    assert det_direct_by_plan(matrix, plan) == Poly((det,))
    # every entry times x: the same Q, shifted
    shifted = tuple(tuple(Poly((0, c)) for c in row) for row in rows)
    assert det_direct_by_plan(shifted, plan) == Poly((0,) * order + (det,))


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("c", [1, -1, 2, -2, 3, -4, 127, -128, 2**40, -(2**40) + 1, 3**50])
def test_point_plans_on_one_monomial(plan, c):
    """[c·x^3]: Q = c, whose absolute value is the bound H."""
    assert det_direct_by_plan(((Poly((0, 0, 0, c)),),), plan) == Poly((0, 0, 0, c))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_interpolate_reads_the_packed_point(data):
    width = data.draw(st.integers(1, 80))
    top = (1 << width - 1) - 1
    poly = Poly(data.draw(st.lists(st.integers(-top, top), max_size=12)))
    x = 1 << width
    assert _interpolate([x], [poly.eval_at(x)], width) == poly


def test_interpolate_takes_only_the_packed_point_with_a_width():
    with pytest.raises(ValueError, match="packed point"):
        _interpolate([3], [7], 1)
    with pytest.raises(ValueError, match="packed point"):
        _interpolate([4, 5], [0, 0], 2)


def _eliminated_values(matrix, x):
    """The integer matrix that `_eliminate` hands to `_bareiss_int` at x:
    at x != 0 every entry divided by x^c, c the least power of x in the
    matrix, and evaluated at x; at x = 0 the kept matrix, whose entry at
    (i, j) is the coefficient of x^(v_i) where v_i = v_j and 0 elsewhere,
    v_i the lowest power of x in row i."""
    valuations = [
        min(next(e for e, c in enumerate(p.coeffs) if c) for p in row if p) for row in matrix
    ]
    if x:
        c = min(valuations)
        return [[Poly(p.coeffs[c:]).eval_at(x) if p else 0 for p in row] for row in matrix]
    return [
        [p.coeffs[v] if p and w == v else 0 for w, p in zip(valuations, row)]
        for v, row in zip(valuations, matrix)
    ]


@pytest.fixture(scope="module")
def z2_k4_gram():
    return build_gram("z2", 4, 2, 0).entries


@pytest.mark.parametrize("x", [0, 1, -1, 63, -63])
def test_bareiss_int_matches_the_reference_on_the_z2_k4_gram_matrix(z2_k4_gram, x):
    rows = _eliminated_values(z2_k4_gram, x)
    assert _bareiss_int(rows) == _bareiss_reference(rows)


def test_every_elimination_is_of_a_symmetric_matrix(monkeypatch, capsys):
    """`_bareiss_int` is handed only symmetric matrices: on every profile
    of PROFILES and in the three commands the benchmark runs."""
    calls = []
    eliminate = determinant._bareiss_int

    def checked(rows):
        assert rows == [list(column) for column in zip(*rows)]
        calls.append(len(rows))
        return eliminate(rows)

    monkeypatch.setattr(determinant, "_bareiss_int", checked)
    for profile in PROFILES:
        decomposition = reduced_decomposition(*profile)
        det_blocks(decomposition)
        det_direct(decomposition.reduced)
    counts = [len(calls)]
    for argv in (
        ["semisimple", "--algebra", "z2", "--k", "4", "--q", "2"],
        ["det", "--algebra", "z2", "--k", "4", "--s1", "2", "--s2", "0"],
        ["verify", "--k", "3"],
    ):
        assert main(argv) == 0
        counts.append(len(calls))
    capsys.readouterr()
    assert all(a < b for a, b in zip([0, *counts], counts))  # each of them eliminated


@pytest.mark.parametrize("start", [-6, -1, 0, 3])
@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-30, 30), max_size=7), st.integers(0, 3))
def test_interpolate_matches_the_newton_oracle(start, coeffs, extra):
    poly = Poly(coeffs)
    xs = list(range(start, start + max(poly.degree(), 0) + extra + 1))
    ys = [poly.eval_at(x) for x in xs]
    assert _interpolate(xs, ys) == newton_reference(xs, ys) == poly


def test_interpolate_through_one_point():
    assert _interpolate([-2], [7]) == Poly([7])
    assert _interpolate([5], [0]) == Poly.zero()


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([0, 1, 2], [0, 0, 1]),  # x(x-1)/2
        ([-3, -2, -1, 0], [-10, -4, -1, 0]),  # x(x-1)(x-2)/6
        ([0, 2], [1, 1]),  # not consecutive
    ],
)
def test_interpolate_rejects_non_integer_coefficients(xs, ys):
    with pytest.raises(ValueError):
        _interpolate(xs, ys)


def test_fraction_coefficient_rejected():
    half = Poly([Fraction(1, 2), 1])
    with pytest.raises(ValueError):
        det_direct(((Poly.monomial(1), Poly.one()), (Poly.one(), half)))
