import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagram_gram.families import FAMILIES
from diagram_gram.gram import (
    GramMatrix,
    ResourceGuardError,
    build_gram,
    enumerate_diagrams,
    invariant_orbits,
    orbit_tree,
    unfold_sparse,
)
from diagram_gram.polynomials import Poly, congruence, phi_z2
from diagram_gram.reduction import (
    _cells_of,
    _congruence,
    _zeta_inverse,
    block_types,
    coarsening_poset,
    diagram_coarser_or_equal,
    is_rho_key,
    minimal_common_coarsening,
    predicted_blocks,
    reduce_gram,
    reduced_decomposition,
)
from diagram_gram.stirling import count_coarser_bruteforce
from diagram_gram.z2diagrams import Z2Diagram
from diagram_gram.semisimplicity import admissible_profiles
from test_partitions import part_of, restrict

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

# the other z2 and signed profiles at k=4 (n up to 248): the orbits there
# are large, so the orbit-wise stages copy most of their rows
K4_PROFILES = [
    (algebra, 4, s1, s2)
    for algebra in ("z2", "signed")
    for s1, s2 in admissible_profiles(algebra, 4)
    if (algebra, 4, s1, s2) not in PROFILES
]


def dense(columns):
    """Rows of the n x n matrix given as sparse columns ((u, c), ...)."""
    n = len(columns)
    rows = [[0] * n for _ in range(n)]
    for v, col in enumerate(columns):
        for u, c in col:
            rows[u][v] = c
    return tuple(map(tuple, rows))


def nonzeros(row):
    """The nonzero entries of a dense row as ascending (column, entry)
    pairs: the form of a row of `BlockDecomposition.reduced`."""
    return tuple((v, p) for v, p in enumerate(row) if not p.is_zero())


def whole(decomposition):
    """The whole reduced matrix T'GT as dense rows, read through
    `BlockDecomposition.submatrix`."""
    return decomposition.submatrix(range(len(decomposition.reduced)))


def render(grid):
    """The exponent grid as `Poly`s: x**e for e, zero for None."""
    return tuple(
        tuple(Poly.zero() if e is None else Poly.monomial(e) for e in row) for row in grid
    )


def congruence_oracle(columns, entries, right=None):
    """C' B C entry by entry in `Poly` arithmetic, for C given as m sparse
    columns ((u, c), ...) over the n indices of B, so that C may be
    rectangular: the reference for the packed-integer `congruence`. With
    `right`, R given as sparse columns like C, it is C' B R."""
    right = columns if right is None else right
    n, m = len(entries), len(right)
    bc = [[None] * m for _ in range(n)]
    for i in range(n):
        row = entries[i]
        for v, col in enumerate(right):
            acc = Poly.zero()
            for u, c in col:
                p = row[u]
                if p.coeffs:
                    acc = acc + p.scalar_mul(c)
            bc[i][v] = acc
    out = [[None] * m for _ in range(len(columns))]
    for u, col in enumerate(columns):
        for j in range(m):
            acc = Poly.zero()
            for w, c in col:
                p = bc[w][j]
                if p.coeffs:
                    acc = acc + p.scalar_mul(c)
            out[u][j] = acc
    return tuple(tuple(row) for row in out)


def test_entries_render_the_exponent_grid():
    # the Poly view the oracles read is the grid the pipeline reads
    for profile in PROFILES:
        gram = build_gram(*profile)
        assert gram.entries == render(gram.exponents)
        shared = {id(p) for row in gram.entries for p in row}
        assert len(shared) == len(set().union(*gram.exponents))


def zeta_inverse_reference(poset):
    """Z^-1 of the dense poset `poset.leq` as sparse columns, every column
    solved by back substitution in basis order: the reference for the
    orbit-wise `_zeta_inverse`, which reads the grid and solves only the
    representatives' columns."""
    leq = poset.leq
    cols = []
    for v in range(len(leq)):
        col = [(v, 1)]
        for u in reversed(range(v)):
            above = leq[u]
            if above[v]:
                c = -sum(c for w, c in col if above[w])
                if c:
                    col.append((u, c))
        col.reverse()
        cols.append(tuple(col))
    return tuple(cols)


@pytest.mark.parametrize("profile", PROFILES + K4_PROFILES, ids=str)
def test_zeta_inverse_matches_the_dense_reference(profile):
    gram = build_gram(*profile)
    assert gram.orbits.generators == gram.generators  # the grid is invariant
    reference = zeta_inverse_reference(coarsening_poset(gram))
    assert _zeta_inverse(gram.exponents, gram.orbits) == reference
    trivial = orbit_tree((), gram.dimension())
    assert _zeta_inverse(gram.exponents, trivial) == reference


@lru_cache(maxsize=None)
def reduced_oracle(profile):
    """T'GT of the profile by `congruence_oracle`, from the T of
    `_zeta_inverse`; memoised, as two tests read it."""
    gram = build_gram(*profile)
    return congruence_oracle(_zeta_inverse(gram.exponents, gram.orbits), gram.entries)


@pytest.mark.parametrize("profile", PROFILES, ids=str)
def test_packed_congruence_matches_oracle(profile):
    gram = build_gram(*profile)
    columns = _zeta_inverse(gram.exponents, gram.orbits)
    oracle = reduced_oracle(profile)
    got = _congruence(columns, gram.exponents, gram.orbits)
    assert got == tuple(oracle[u] for u in gram.orbits.representatives)
    # the trivial group's one orbit per index: every row is computed
    trivial = orbit_tree((), gram.dimension())
    assert _congruence(columns, gram.exponents, trivial) == oracle


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_congruence_matches_oracle_on_random_input(data):
    # large transform entries stress the digit width, negative ones the
    # balanced decoding
    n = data.draw(st.integers(0, 12))
    coeff = st.one_of(st.just(0), st.integers(-(10**6), 10**6))
    transform = tuple(
        tuple(1 if u == v else data.draw(coeff) if u < v else 0 for v in range(n))
        for u in range(n)
    )
    columns = tuple(
        tuple((u, transform[u][v]) for u in range(n) if transform[u][v]) for v in range(n)
    )
    exponent = st.one_of(st.none(), st.integers(0, 12))
    grid = tuple(
        tuple(data.draw(st.lists(exponent, min_size=n, max_size=n))) for _ in range(n)
    )
    trivial = orbit_tree((), n)
    assert _congruence(columns, grid, trivial) == congruence_oracle(columns, render(grid))


def invariant_under(perms, n, draw):
    """An n x n matrix, as a dict {(u, v): entry}, whose entry is drawn once
    per orbit of the index pairs under the permutations `perms`."""
    out = {}
    for start in itertools.product(range(n), repeat=2):
        if start in out:
            continue
        value = draw()
        orbit = [start]
        out[start] = value
        for u, v in orbit:
            for perm in perms:
                image = perm[u], perm[v]
                if image not in out:
                    out[image] = value
                    orbit.append(image)
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_congruence_copies_rows_of_an_invariant_input(data):
    # G and T drawn constant on the orbits of index pairs: only the
    # representative rows are computed, the others copied by permutation
    n = data.draw(st.integers(0, 9))
    perms = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    grid = invariant_under(perms, n, lambda: data.draw(st.one_of(st.none(), st.integers(0, 9))))
    grid = tuple(tuple(grid[u, v] for v in range(n)) for u in range(n))
    entries = invariant_under(perms, n, lambda: data.draw(st.integers(-(10**6), 10**6)))
    columns = tuple(
        tuple((u, entries[u, v]) for u in range(n) if entries[u, v]) for v in range(n)
    )
    orbits = invariant_orbits(grid, orbit_tree(perms, n))
    assert orbits.generators == tuple(perms)  # the check passes
    oracle = congruence_oracle(columns, render(grid))
    got = _congruence(columns, grid, orbits)
    assert got == tuple(oracle[u] for u in orbits.representatives)
    assert len({id(p) for row in got for p in row}) == len({p for row in got for p in row})
    # the representatives' rows, cut to their nonzeros, determine the rest
    rows = [None] * n
    for u, row in zip(orbits.representatives, got):
        rows[u] = nonzeros(row)
    assert unfold_sparse(rows, orbits) == tuple(map(nonzeros, oracle))
    # an invariant G with a T that is rarely invariant: `_congruence` trusts
    # the orbits it is handed, so such a T goes with the trivial group
    coeff = st.one_of(st.just(0), st.integers(-(10**6), 10**6))
    columns = tuple(
        tuple((u, c) for u in range(n) if (c := data.draw(coeff))) for _ in range(n)
    )
    trivial = orbit_tree((), n)
    assert _congruence(columns, grid, trivial) == congruence_oracle(columns, render(grid))


@pytest.mark.parametrize("profile", PROFILES + K4_PROFILES, ids=str)
def test_transform_is_invariant_under_the_orbits(profile):
    # `_congruence` copies rows along `gram.orbits` without checking T: the
    # T that `reduce_gram` hands it, and the dense reference T solved
    # without orbits, must both be invariant under every generator
    decomposition = reduced_decomposition(*profile)
    gram = decomposition.gram
    reference = zeta_inverse_reference(coarsening_poset(gram))
    for columns in (decomposition.transform, reference):
        t = dense(columns)
        for perm in gram.orbits.generators:
            assert all(
                t[perm[u]][perm[v]] == t[u][v] for u in range(len(t)) for v in range(len(t))
            )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_congruence_kernel_matches_oracle_on_random_input(data):
    # C rectangular with large entries of either sign, B with entries of
    # every degree up to 5 and large coefficients of either sign
    n = data.draw(st.integers(0, 10))
    m = data.draw(st.integers(0, n))
    entry = st.one_of(st.just(0), st.integers(-(10**6), 10**6))
    columns = tuple(
        tuple((u, c) for u in range(n) if (c := data.draw(entry))) for _ in range(m)
    )
    poly = st.builds(Poly, st.lists(entry, max_size=6))
    rows = tuple(tuple(data.draw(st.lists(poly, min_size=n, max_size=n))) for _ in range(n))
    coeffs = {p: p.coeffs for row in rows for p in row}
    got = congruence(columns, rows, columns, coeffs)
    assert got == congruence_oracle(columns, rows)
    # equal results share one Poly
    assert len({id(p) for row in got for p in row}) == len({p for row in got for p in row})
    # two different sides, each of any width
    right = tuple(
        tuple((u, c) for u in range(n) if (c := data.draw(entry)))
        for _ in range(data.draw(st.integers(0, n)))
    )
    assert congruence(columns, rows, right, coeffs) == congruence_oracle(columns, rows, right)


@pytest.mark.parametrize("left", [(), ((),), ((), ())], ids=["no column", "one zero", "two zero"])
def test_congruence_kernel_when_the_left_side_reads_no_row(left):
    # the rows of B are packed as L reads them: with no row read, L'BR is
    # p rows of zeros, or no row at all
    rows = ((Poly([1, 2]), Poly.zero()), (Poly.zero(), Poly.monomial(3)))
    coeffs = {p: p.coeffs for row in rows for p in row}
    right = (((0, 1),), ((0, -2), (1, 5)), ())
    got = congruence(left, rows, right, coeffs)
    assert got == congruence_oracle(left, rows, right) == ((Poly.zero(),) * 3,) * len(left)


def test_poset_is_a_partial_order():
    for algebra in ("partition", "z2", "signed"):
        for k in (1, 2, 3):
            for s1, s2 in admissible_profiles(algebra, k):
                poset = coarsening_poset(build_gram(algebra, k, s1, s2))
                n = len(poset.keys)
                leq = poset.leq
                for u in range(n):
                    assert leq[u][u]
                for u, v in itertools.product(range(n), repeat=2):
                    if u != v and leq[u][v]:
                        assert not leq[v][u]  # antisymmetry
                        assert poset.keys[u].sort_key() < poset.keys[v].sort_key()
                for u, v, w in itertools.product(range(n), repeat=3):
                    if leq[u][v] and leq[v][w]:
                        assert leq[u][w]  # transitivity


def test_poset_counts_agree_with_bruteforce_oracle():
    # number of poset elements above a diagram, per edge profile, equals the
    # merge-pattern count (three independent implementations agree)
    for algebra in ("partition", "z2"):
        for k in (1, 2, 3):
            for s1, s2 in admissible_profiles(algebra, k):
                poset = coarsening_poset(build_gram(algebra, k, s1, s2))
                basis = enumerate_diagrams(algebra, k, s1, s2)
                n = len(basis)
                for v in range(n):
                    per_profile = {}
                    for u in range(n):
                        if poset.leq[u][v]:
                            key = poset.keys[u]
                            per_profile[(key.r1, key.r2)] = per_profile.get((key.r1, key.r2), 0) + 1
                    for (p1, p2), count in per_profile.items():
                        if algebra == "partition":
                            assert count_coarser_bruteforce(basis[v][1], p1) == count
                        else:
                            assert count_coarser_bruteforce(basis[v][1], p1, p2) == count


def test_rho_detection():
    basis = enumerate_diagrams("signed", 3, 1, 0)
    rho = [key for key, _ in basis if is_rho_key(key, 3, 1, 0)]
    assert len(rho) == 9
    assert {(key.r1, key.r2) for key in rho} == {(1, 1), (2, 0)}
    # excluded coarsenings are genuinely absent from the signed family
    signed = coarsening_poset(build_gram("signed", 3, 1, 0))
    assert all((key.r1, key.r2) != (0, 2) for key in signed.keys)


def strictly_below(poset, v):
    return [u for u in range(len(poset.keys)) if u != v and poset.leq[u][v]]


def sequential_transform(poset):
    """Literal column operations in basis order, col v -= reduced col u:
    the reference for the closed-form Moebius inverse `_zeta_inverse`."""
    n = len(poset.keys)
    cols = [[1 if u == v else 0 for u in range(n)] for v in range(n)]
    for v in range(n):
        for u in strictly_below(poset, v):
            for w in range(n):
                cols[v][w] -= cols[u][w]
    return tuple(tuple(cols[v][u] for v in range(n)) for u in range(n))


def test_transform_is_unitriangular_and_methods_agree():
    for algebra, k, s1, s2 in PROFILES:
        gram = build_gram(algebra, k, s1, s2)
        mobius = reduce_gram(gram)
        # the sparse columns hold exactly the nonzero entries
        assert all(c for col in mobius.transform for _, c in col)
        transform = dense(mobius.transform)
        sequential = sequential_transform(coarsening_poset(gram))
        assert transform == sequential
        oracle = reduced_oracle((algebra, k, s1, s2))
        assert mobius.reduced == tuple(map(nonzeros, oracle))
        assert whole(mobius) == oracle
        n = gram.dimension()
        for u in range(n):
            assert transform[u][u] == 1
            for v in range(n):
                assert isinstance(transform[u][v], int)
                if u != v and transform[u][v] != 0:
                    assert gram.keys[u].sort_key() < gram.keys[v].sort_key()


def test_published_reduction_blocks():
    dec = reduced_decomposition("signed", 3, 1, 0)
    assert not dec.offblock_violations
    labels = [label for label, _ in dec.cells]
    assert labels == [("cell", 0, 0), ("cell", 0, 1), ("cell", 1, 0), ("rho",)]
    b00 = dec.block(("cell", 0, 0))
    assert all(b00[i][j] == (Poly.one() if i == j else Poly.zero()) for i in range(4) for j in range(4))
    b01 = dec.block(("cell", 0, 1))
    assert all(b01[i][j] == (Poly.monomial(1) if i == j else Poly.zero()) for i in range(9) for j in range(9))
    b10 = dec.block(("cell", 1, 0))
    coupling = Poly([-2])
    diag = phi_z2(1, 0, 1, 0)
    for i in range(12):
        assert b10[i][i] == diag
        partners = [j for j in range(12) if j != i and not b10[i][j].is_zero()]
        assert len(partners) == 1 and b10[i][partners[0]] == coupling
    rho = dec.block(("rho",))
    diag_counts = {}
    for i in range(9):
        diag_counts[str(rho[i][i])] = diag_counts.get(str(rho[i][i]), 0) + 1
    assert diag_counts == {"x^3-3*x": 6, "x^4-2*x^3-4*x^2+5*x+8": 3}


def test_published_informative_diffs_are_the_missing_correction_terms():
    dec = reduced_decomposition("signed", 3, 1, 0)
    assert not dec.hard_diffs()
    informative = [d for d in dec.diffs if d.informative]
    assert len(informative) == 12
    correction = phi_z2(1, 0, 0, 2)
    for d in informative:
        assert d.predicted - d.got == correction


def test_all_small_reductions_are_clean():
    for algebra in ("partition", "z2", "signed"):
        k_top = 4 if algebra == "partition" else 3
        for k in range(1, k_top + 1):
            for s1, s2 in admissible_profiles(algebra, k):
                dec = reduced_decomposition(algebra, k, s1, s2)
                assert not dec.offblock_violations, (algebra, k, s1, s2)
                assert not dec.hard_diffs(), (algebra, k, s1, s2)


def block_types_reference(part, per_fibre):
    """(is_through, is_flip_fixed) of each block of a diagram's
    `SetPartition`, which has `per_fibre` points per fibre in a row: the
    oracle for `block_types`, which reads the block masks. The flip
    exchanges the points 2i and 2i+1 of a doubled row and fixes every point
    of a plain row."""
    row = part.n // 2
    flip = per_fibre - 1
    index = part.block_index
    return [(b[0] < row <= b[-1], index[b[0] ^ flip] == index[b[0]]) for b in part.blocks]


def coarser_or_equal_reference(part_a, part_b, types_a, types_b):
    """Whether the diagram of `part_a` is a coarser diagram of that of
    `part_b`, given their `block_types_reference`: the oracle for
    `diagram_coarser_or_equal`, which reads the block masks. Every block
    of b must lie in one block of a; through blocks land one-to-one in
    through blocks of their flip type, flip-fixed ones in flip-fixed
    targets."""
    index_a = part_a.block_index
    used_through = set()
    for block, (b_through, b_fixed) in zip(part_b.blocks, types_b):
        target = index_a[block[0]]
        if any(index_a[v] != target for v in block[1:]):
            return False
        a_through, a_fixed = types_a[target]
        if b_through:
            if not a_through or a_fixed != b_fixed or target in used_through:
                return False
            used_through.add(target)
        elif b_fixed and not a_fixed:
            return False
    return True


COARSENING_PROFILES = (
    [("partition", k, s, 0) for k in range(1, 6) for s in range(k + 1)]
    + [
        (algebra, k, s1, s2)
        for algebra in ("z2", "signed")
        for k in (1, 2, 3)
        for s1, s2 in FAMILIES[algebra].profiles(k)
    ]
    + [("z2", 4, 1, 0), ("signed", 4, 1, 0)]
)


@pytest.mark.parametrize("profile", COARSENING_PROFILES, ids=str)
def test_mask_coarsening_equals_the_set_partition_oracle(profile):
    # every ordered pair of the basis, with the types handed in as `verify`
    # hands them, and built by the call itself on the first row
    diagrams = [d for _, d in enumerate_diagrams(*profile)]
    parts = [part_of(d) for d in diagrams]
    want_types = [block_types_reference(p, d.per_fibre) for p, d in zip(parts, diagrams)]
    types = [block_types(d) for d in diagrams]
    assert types == want_types
    for a, da in enumerate(diagrams):
        for b, db in enumerate(diagrams):
            want = coarser_or_equal_reference(parts[a], parts[b], want_types[a], want_types[b])
            assert diagram_coarser_or_equal(da, db, types[a], types[b]) == want, (a, b)
            if a == 0:
                assert diagram_coarser_or_equal(da, db) == want, (a, b)


def test_coarsening_rejects_mixed_families():
    plain = enumerate_diagrams("partition", 2, 1)[0][1]
    doubled = enumerate_diagrams("z2", 1, 1, 0)[0][1]
    with pytest.raises(TypeError):
        diagram_coarser_or_equal(plain, doubled)
    with pytest.raises(TypeError):
        diagram_coarser_or_equal(doubled, plain)


def swap_pair_parameters(du, dv):
    """Role-swap parameters (t1, t2) for two diagrams on the same row partition.

    The pair qualifies when both diagrams restrict to the same top-row
    partition and differ only in which classes are designated through; t1
    counts exchanged conjugate pairs and t2 exchanged flip-fixed classes.
    Returns None for non-qualifying pairs. The role-swap oracle: it reads
    whole diagrams, where `role_swaps` reads row views.
    """
    if isinstance(du, Z2Diagram):
        half = 2 * du.k
        top_u = restrict(part_of(du), range(half))
        top_v = restrict(part_of(dv), range(half))
        if top_u != top_v:
            return None
        thr_u = _through_block_set(du, half)
        thr_v = _through_block_set(dv, half)
    else:
        k = du.k
        top_u = restrict(part_of(du), range(k))
        top_v = restrict(part_of(dv), range(k))
        if top_u != top_v:
            return None
        thr_u = _through_block_set(du, k)
        thr_v = _through_block_set(dv, k)
    only_u = thr_u - thr_v
    if not only_u:
        return None
    if isinstance(du, Z2Diagram):
        t1 = t2 = 0
        for block in only_u:
            flipped = frozenset(v ^ 1 for v in block)
            if flipped == block:
                t2 += 1
            else:
                t1 += 1
        return t1 // 2, t2
    return len(only_u), 0


def _through_block_set(diagram, half):
    out = set()
    for block in part_of(diagram).blocks:
        if block[0] < half <= block[-1]:
            out.add(frozenset(v for v in block if v < half))
    return out


def test_swap_pair_parameters():
    basis = enumerate_diagrams("signed", 3, 1, 0)
    cell_10 = [(key, d) for key, d in basis if (key.r1, key.r2) == (1, 0)]
    pairs = 0
    for (ka, da), (kb, db) in itertools.permutations(cell_10, 2):
        swap = swap_pair_parameters(da, db)
        if swap is not None:
            assert swap == (1, 0)
            pairs += 1
    assert pairs == 12  # each of the 12 diagrams has exactly one partner


def test_join_in_family():
    for algebra in ("partition", "z2"):
        for k in (1, 2, 3):
            for s1, s2 in admissible_profiles(algebra, k):
                gram = build_gram(algebra, k, s1, s2)
                diagrams = gram.diagrams
                n = len(diagrams)
                target = s1 if algebra == "partition" else 2 * s1 + s2
                for u in range(n):
                    assert minimal_common_coarsening(gram, u, u) == u
                for u, v in itertools.combinations(range(n), 2):
                    w = minimal_common_coarsening(gram, u, v)
                    prod, _ = diagrams[u].multiply(diagrams[v])
                    if prod.propagating_number() != target:
                        assert w is None
                        continue
                    dw = diagrams[w]
                    assert diagram_coarser_or_equal(dw, diagrams[u])
                    assert diagram_coarser_or_equal(dw, diagrams[v])
                    _, l_ww = dw.multiply(dw)
                    _, l_wu = dw.multiply(diagrams[u])
                    _, l_wv = dw.multiply(diagrams[v])
                    assert l_ww == l_wu == l_wv


def join_reference(gram, u, v):
    """The join search on whole diagrams, by `diagram_coarser_or_equal`:
    the finest basis element coarser than both u and v, None when the
    product u.v drops a through block, RuntimeError when not unique."""
    diagrams = gram.diagrams
    prod, _ = diagrams[u].multiply(diagrams[v])
    if prod.propagating_number() != gram.through_count():
        return None
    candidates = [
        w
        for w in range(len(diagrams))
        if diagram_coarser_or_equal(diagrams[w], diagrams[u])
        and diagram_coarser_or_equal(diagrams[w], diagrams[v])
    ]
    finest = [
        w
        for w in candidates
        if all(diagram_coarser_or_equal(diagrams[o], diagrams[w]) for o in candidates)
    ]
    if len(finest) != 1:
        raise RuntimeError(f"common coarsening of {u} and {v} is not unique: {finest}")
    return finest[0]


def join_outcome(join, gram, u, v):
    try:
        return join(gram, u, v)
    except RuntimeError as exc:
        return ("raised", str(exc))


@pytest.mark.parametrize(
    "algebra, k, s1, s2",
    [p for p in PROFILES if p[1] <= 3 and FAMILIES[p[0]].ambient == p[0]],
    ids=str,
)
def test_join_from_the_poset_equals_the_diagram_search(algebra, k, s1, s2):
    gram = build_gram(algebra, k, s1, s2)
    n = gram.dimension()
    for u, v in itertools.product(range(n), repeat=2):
        assert join_outcome(minimal_common_coarsening, gram, u, v) == join_outcome(
            join_reference, gram, u, v
        ), (u, v)


def test_partition_blocks_match_falling_products():
    dec = reduced_decomposition("partition", 4, 1, 0)
    for label, members in dec.cells:
        block = dec.block(label)
        r = label[1]
        for a in range(len(members)):
            assert block[a][a] == phi_z2(0, 1, 0, r)  # (x-1)...(x-r)


def test_one_profile_is_enumerated_once():
    # the reduction reads the grid of the Gram matrix reduced_decomposition
    # built, and builds no dense poset
    for cached in (enumerate_diagrams, build_gram, coarsening_poset, reduced_decomposition):
        cached.cache_clear()
    reduced_decomposition("z2", 3, 1, 0)
    assert enumerate_diagrams.cache_info().misses == 1
    assert build_gram.cache_info().misses == 1
    assert coarsening_poset.cache_info().misses == 0


def test_poset_honours_the_guard():
    # the guard applies where a basis is enumerated; an existing matrix
    # reduces without one
    n = len(enumerate_diagrams("z2", 2, 1, 0))
    with pytest.raises(ResourceGuardError):
        build_gram("z2", 2, 1, 0, n - 1)
    with pytest.raises(ResourceGuardError):
        reduced_decomposition("z2", 2, 1, 0, n - 1)
    with pytest.raises(ResourceGuardError):
        reduced_decomposition("partition", 2, 1, 0, 1)
    gram = build_gram("z2", 2, 1, 0, n)
    assert len(coarsening_poset(gram).keys) == n
    assert len(reduce_gram(gram).transform) == n


def test_reduce_gram_builds_no_second_matrix():
    for cached in (enumerate_diagrams, build_gram, coarsening_poset, reduced_decomposition):
        cached.cache_clear()
    reduce_gram(build_gram("z2", 3, 1, 0, 5000))
    assert build_gram.cache_info().misses == 1


def test_reduce_gram_reads_the_grid_it_is_handed():
    # plant a relation u <= v with u below v in the basis order, so the
    # planted grid still has an upper triangular order
    gram = build_gram("z2", 3, 1, 0)
    grid = gram.exponents
    u, v = next(
        (u, v)
        for v in range(len(grid))
        for u in range(v)
        if grid[u][u] < grid[v][v] and grid[u][v] != grid[u][u]
    )
    rows = [list(row) for row in grid]
    rows[u][v] = rows[v][u] = grid[u][u]
    planted = GramMatrix(
        gram.algebra, gram.k, gram.s1, gram.s2, gram.keys, gram.diagrams,
        tuple(map(tuple, rows)), gram.symmetry,
    )
    assert coarsening_poset(planted).leq[u][v]
    # the planted grid is not invariant, so the group is trivial: every
    # column of T and every row of T'GT is computed
    assert planted.generators == gram.generators
    assert planted.orbits.generators == ()
    assert planted.orbits.representatives == list(range(len(grid)))
    decomposition = reduce_gram(planted)
    transform = decomposition.transform
    assert transform == zeta_inverse_reference(coarsening_poset(planted))
    assert transform != reduce_gram(gram).transform
    oracle = congruence_oracle(transform, render(planted.exponents))
    assert decomposition.reduced == tuple(map(nonzeros, oracle))
    assert whole(decomposition) == oracle


def compare_reference(gram, reduced, cells, predicted):
    """Every in-cell entry of the reduced matrix against its prediction, in
    cell order and row-major within a cell: the reference for the
    orbit-wise `compare_blocks`, as (label, row, column, got, predicted,
    informative) tuples."""
    diffs = []
    for label, members in cells:
        pred = predicted[label]
        for a, u in enumerate(members):
            for b, v in enumerate(members):
                if reduced[u][v] != pred[a][b]:
                    informative = label[0] == "rho" and u != v
                    diffs.append((label, u, v, reduced[u][v], pred[a][b], informative))
    return diffs


@pytest.mark.parametrize("profile", PROFILES + K4_PROFILES, ids=str)
def test_nonzero_pattern_matches_a_dense_scan(profile):
    # each sparse row of T'GT is its nonzero pattern with the entries on it
    dec = reduced_decomposition(*profile)
    gram, n = dec.gram, len(dec.reduced)
    for row in dec.reduced:
        columns = [v for v, _ in row]
        assert columns == sorted(set(columns))  # ascending
        assert not any(p.is_zero() for _, p in row)
    # every row computed by the kernel, none mapped along the orbit tree;
    # on the `PROFILES` entries that is the dense `Poly` oracle
    dense = _congruence(dec.transform, gram.exponents, orbit_tree((), n))
    if profile in PROFILES:
        assert dense == reduced_oracle(profile)
    assert dec.reduced == tuple(map(nonzeros, dense))
    assert whole(dec) == dense
    cell_of = {m: label for label, members in dec.cells for m in members}
    assert dec.offblock_violations == tuple(
        (u, v)
        for u in range(n)
        for v in range(n)
        if cell_of[u] != cell_of[v] and not dense[u][v].is_zero()
    )
    assert dec.cells == _cells_of(gram)
    assert dec.predicted == predicted_blocks(gram, dec.cells)
    index = {key: u for u, key in enumerate(gram.keys)}
    got = [
        (d.block, index[d.row_key], index[d.col_key], d.got, d.predicted, d.informative)
        for d in dec.diffs
    ]
    assert got == compare_reference(gram, dense, dec.cells, dec.predicted)

