"""Exact determinants of polynomial matrices by evaluation-interpolation.

Polynomial matrices here have integer coefficients. `det_direct` reads
only the matrix it is given: it is the production path for every coupled
component of a reduced matrix outside the rho cell, and it takes every
determinant that `det_isotypic` splits off. `det_isotypic` splits a matrix
that the fibre permutations leave invariant into one small block per
partition of k; applied to a whole Gram matrix by the `det` command it is
independent of the block reduction and cross-validates it.

Components. `det_direct` first splits its input along the connected
components of its own nonzero pattern. With rows and columns permuted
alike, which leaves the determinant as it is, each component is a
contiguous diagonal block, so the determinant is the product of theirs
(a reduced matrix handed in whole, as `verify` does, has up to 31 of them
on the k=3 profiles). It finds them with its own union-find, not with
`_components`, whose calls `perfbench` counts as the components of the
reduced matrices `det_blocks` splits. Each block is eliminated as below
(`_eliminate`).

Row shift. Let v_i and h_i be the lowest and the highest power of x in
row i. Every term of the Leibniz expansion takes one entry from each row,
so it is divisible by x^(Σv_i) and has degree at most Σh_i. Hence
det = x^(Σv_i)·Q, where Q is the determinant of the matrix with row i
divided by x^(v_i), and deg Q <= D = Σ(h_i - v_i).

Window. Q is evaluated at the D+1 consecutive integers -⌊D/2⌋..⌈D/2⌉,
which keeps |x|, and with it the integers of the elimination, small.

Elimination. Each integer determinant comes from fraction-free Bareiss
elimination (Bareiss, Math. Comp. 22, 1968). With P[0] = 1 and P[j] the
pivot of step j, step j turns a row r into (P[j]·r - f·pivot_row) / P[j-1],
f its entry in the pivot column. For f = 0 that is r·P[j]/P[j-1], so a row
that steps a+1..k skip has the level-k values r·P[k]/P[a]: the factors
telescope. Such a row is left as it is and carries its level a; the pivot
row is brought to the current level once, and a row with f != 0 is
rewritten with the divisor P[a] of its own last rewrite. Every level-k value
is a k+1 by k+1 minor of the input (Sylvester's identity), so each division
is exact. A Gram matrix is sparse (z2 k=4 (2,0): 12.7% nonzeros), and most
rows have f = 0 at most steps.

Interpolation. Q has integer coefficients, so D!·Q, written in Newton's
forward form on the window, has integer coefficients too, and dividing
them by D! leaves no remainder. A remainder can only come from values that
no integer polynomial of degree <= D takes, and it raises ValueError.

Isotypic blocks. Let π be a permutation action of S_k on the indices of
B with B[π(g)u][π(g)v] = B[u][v], for instance the fibre permutations on
a Gram matrix (`GramMatrix.fibre_action`, read off the matrix's
`generators`) or on a rho component of its reduction. Then the
permutation matrices P_g of π are orthogonal and commute with B. For each
partition λ of k, fill one tableau T row by row, with row group R_T and
column group C_T, and let
e_T = Σ_{r∈R_T} Σ_{c∈C_T} sgn(c)·rc, its Young symmetrizer (Fulton &
Harris, Representation Theory, §4.1). The irreducibles of S_k are defined
over Q, so the λ-isotypic part of Q^n is W_λ ⊗ M_λ, with S_k acting on
W_λ (of dimension d_λ, from the hook length formula) and, by Schur's
lemma, B acting as I ⊗ B_λ on M_λ (of dimension m_λ, so Σ m_λ d_λ = n).
The invariant inner product is ⟨,⟩_W ⊗ ⟨,⟩_M, since the invariant forms
on W_λ are the multiples of one. The image of P(e_T) is w_T ⊗ M_λ, so
its columns Y, m_λ of them, independent, chosen by fraction-free integer
elimination, are w_T ⊗ y_j for a basis y_j of M_λ. Then
Y'BY = |w_T|²·G_y·[B_λ] and Y'Y = |w_T|²·G_y, G_y the Gram matrix of the
y_j, and det(Y'BY) / det(Y'Y) = det B_λ. Summing over λ,

    det B = Π_λ det(Y'BY)^{d_λ} / Π_λ det(Y'Y)^{d_λ}.

Symmetrizers as transposition passes. S_k is never listed. Over m
points, the cosets of S_{j-1} in S_j give Σ_σ σ = Π_{j=2..m} (1 + J_j)
and Σ_σ sgn(σ)·σ = Π_{j=2..m} (1 - J_j), J_j = Σ_{i<j} (i j). So the
column π(e_T)·e_u comes from e_u by one sparse pass per factor, the column
groups' first (e_T = (Σ_R r)(Σ_C sgn(c)·c)): O(k²) transpositions, not
the k! terms of e_T for λ = (k). Each transposition's index permutation is
composed from π((0 1)) and π(c), c = (0 1 ... k-1), whose invariance is
checked: (i i+1) = c·(i-1 i)·c⁻¹ and (i j) = (i i+1)(i+1 j)(i i+1). The
shapes stop once Σ m_λ d_λ reaches n, as every later one has m_λ = 0, so
the guard on n bounds the work; a one-diagram basis is its own
determinant and lists no transposition.

Y is an integer matrix, so Y'BY is an integer polynomial matrix and Y'Y an
integer matrix, and `det_direct` takes both. Every Y'BY comes from one call
of `polynomials.congruence`, the kernel of the reduction's T'GT, with all
the Y stacked as the columns of one C, passed as both of its sides: Y'BY
is a diagonal block of C'BC.
Y'Y is a sparse dot product of Y's columns. det B has integer
coefficients and the denominator is a nonzero integer (Y'Y is positive
definite), so the one division at the end is exact; a remainder raises
ValueError. Invariance is checked exactly, entry by entry, under the
generators (0 1) and (0 1 ... k-1). If it fails, if the action moves an
index out of the matrix, if k = 1 or n <= 1, or if Σ m_λ d_λ differs from
n, the determinant is `det_direct(B)`.

`det_blocks` reads the reduced matrix's nonzero pattern
(`BlockDecomposition.nonzero`): with rows and columns permuted alike so
that each connected component of the pattern is contiguous, the matrix is
block diagonal, so its determinant is the product of the components'.
The fibre permutations leave the reduced matrix invariant (the coarsening
poset, hence T, is invariant with G), and they map the rho cell onto
itself; a component inside the rho cell goes to `det_isotypic` under the
fibre permutations restricted to it, and any other to `det_direct`. A
generator g of `GramMatrix.generators` maps a component C onto a component
g(C) whose block is C's up to a simultaneous permutation, so the two have
one determinant; `det_blocks` computes it once per orbit of components,
after checking g(C) entry by entry, and reads it from a memo at the
others (the 15 z2 k=4 profiles: 247 coupled components in 35 orbits).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import factorial
from operator import itemgetter, mul

from .gram import fibre_generators, is_invariant
from .partitions import UnionFind
from .polynomials import Poly, congruence, phi_atoms

__all__ = ["DetResult", "det_direct", "det_isotypic", "det_blocks"]


@dataclass(frozen=True)
class DetResult:
    """A determinant kept as its factors: (factor, multiplicity) pairs.

    `poly` multiplies the factors out on first access and caches the
    product on the instance, so callers that only read the factors never
    pay for the (possibly large) product.
    """

    factored: tuple[tuple[Poly, int], ...]

    @classmethod
    def from_counts(cls, factors: dict[Poly, int]) -> "DetResult":
        """Factors with their multiplicities, sorted by their rendering."""
        return cls(tuple(sorted(factors.items(), key=lambda kv: str(kv[0]))))

    @cached_property
    def poly(self) -> Poly:
        out = Poly.one()
        for factor, mult in self.factored:
            for _ in range(mult):
                out = out * factor
        return out


def _bareiss_int(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss), rewriting
    only the rows that a step changes.

    P[0] = 1 and P[j] is the pivot of step j. A row last rewritten at step a
    is kept as its entries in columns a.. at level a; its level-k values are
    r·P[k]/P[a], since the factors piv/prev of the steps that skipped it
    telescope. Step k+1 takes the first pending row with a nonzero entry in
    column k as its pivot row and brings it to level k with r·P[k] // P[a].
    A row with a nonzero entry f in column k becomes
    (piv·r - f·pivot_row) // P[a], its level-(k+1) values; a row with f = 0
    is left as it is. Both divisions are exact, since every level-k value is
    a minor of the input (Sylvester's identity). The pivot row trades places
    with the first pending row, as in row-by-row elimination, and each such
    swap flips the sign; the determinant is the signed last pivot.
    """
    pending = [(0, row) for row in rows]  # (level, entries from that column)
    pivots = [1]
    sign = 1
    for k in range(len(rows)):
        for p, (a, row) in enumerate(pending):
            if row[k - a]:
                break
        else:
            return 0
        if p:
            pending[0], pending[p] = pending[p], pending[0]
            sign = -sign
        a, head = pending.pop(0)
        if a < k:
            head = [v * pivots[k] // pivots[a] for v in head[k - a :]]
        piv, head = head[0], head[1:]
        for i, (a, row) in enumerate(pending):
            f = row[k - a]
            if f:
                prev, rest = pivots[a], row[k - a + 1 :]
                pending[i] = (k + 1, [(piv * u - f * v) // prev for u, v in zip(rest, head)])
        pivots.append(piv)
    return sign * pivots[-1]


def _interpolate(xs: list[int], ys: list[int]) -> Poly:
    """The polynomial of degree at most D = len(xs) - 1 through
    (xs[i], ys[i]), for consecutive integers xs and integers ys.

    Newton's forward formula scaled by D! has integer coefficients:
    D!·p(x) = Σ_j (Δ^j y_0 · D!/j!) · (x - xs[0])···(x - xs[j-1]), with
    Δ^j y_0 the forward differences of ys. A Horner pass expands it in
    integers, and each coefficient is then divided by D!. A nonzero
    remainder means p has a non-integer coefficient and raises ValueError.
    """
    if any(b - a != 1 for a, b in zip(xs, xs[1:])):
        raise ValueError("_interpolate expects consecutive integer points")
    diffs = []
    level = list(ys)
    while level:
        diffs.append(level[0])
        level = [b - a for a, b in zip(level, level[1:])]
    d = len(xs) - 1
    acc = [diffs[d]]  # ascending coefficients; weight is D!/j! at step j
    weight = 1
    for j in range(d - 1, -1, -1):
        c = xs[j]
        weight *= j + 1
        acc = [a - c * b for a, b in zip([0, *acc], [*acc, 0])]
        acc[0] += diffs[j] * weight
    scale = factorial(d)
    coeffs = []
    for a in acc:
        q, r = divmod(a, scale)
        if r:
            raise ValueError("interpolated values have a non-integer coefficient")
        coeffs.append(q)
    return Poly(coeffs)


def det_direct(matrix) -> Poly:
    """Determinant of a square polynomial matrix with integer coefficients,
    exactly.

    The matrix is split along the connected components of its own nonzero
    pattern, the graph joining u and v for every nonzero entry (u, v): with
    rows and columns permuted alike so that each component is contiguous,
    the matrix is block diagonal, so its determinant is the product of the
    components' determinants, each from `_eliminate`. An entry with a
    non-integer coefficient raises ValueError before any evaluation.
    """
    n = len(matrix)
    if n == 0:
        return Poly.one()
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    integral: set[Poly] = set()
    pattern = UnionFind(n)
    for u, row in enumerate(matrix):
        for v, p in enumerate(row):
            if p:
                pattern.union(u, v)
                if p not in integral:
                    if not p.is_integral():
                        raise ValueError("det_direct expects integer-coefficient entries")
                    integral.add(p)
    det = Poly.one()
    for comp in pattern.blocks():
        det = det * _eliminate(tuple(tuple(matrix[a][b] for b in comp) for a in comp))
        if not det:
            break  # a zero row is a component of its own
    return det


def _eliminate(matrix) -> Poly:
    """Determinant of a square matrix of integer polynomials by evaluation,
    Bareiss elimination and interpolation, whatever its nonzero pattern.

    Row i is divided by x^(v_i), its lowest power of x, which leaves
    det = x^(Σv_i)·Q with deg Q <= D = Σ(h_i - v_i), h_i the row's highest
    power (see the module docstring). Q is evaluated at the D+1 integers
    -⌊D/2⌋..⌈D/2⌉, each entry from one table of powers of x per point,
    and interpolated; since Q has integer coefficients, the
    interpolation's division by D! is exact. `det_direct` checks that the
    coefficients are integers.
    """
    lowest: dict[Poly, int] = {}
    for row in matrix:
        for p in row:
            if p and p not in lowest:
                lowest[p] = next(e for e, c in enumerate(p.coeffs) if c)
    # each row as indices into the distinct shifted entries' coefficient
    # tuples, numbered in order of appearance; the zero entry is () at 0
    index: dict[tuple[int, ...], int] = {(): 0}
    rows = []
    valuation = bound = 0
    for row in matrix:
        nonzero = [p for p in row if p]
        if not nonzero:
            return Poly.zero()
        v = min(lowest[p] for p in nonzero)
        valuation += v
        bound += max(p.degree() for p in nonzero) - v
        rows.append([index.setdefault(p.coeffs[v:], len(index)) for p in row])
    table = list(index)
    width = max(map(len, table))

    def det_at(x: int) -> int:
        powers = [1]
        for _ in range(width - 1):
            powers.append(powers[-1] * x)
        values = [sum(map(mul, coeffs, powers)) for coeffs in table]
        return _bareiss_int([list(map(values.__getitem__, keys)) for keys in rows])

    xs = list(range(-(bound // 2), bound - bound // 2 + 1))
    return Poly((0,) * valuation + _interpolate(xs, [det_at(x) for x in xs]).coeffs)


def _partitions(k: int, largest: int | None = None):
    """The partitions of k as weakly decreasing tuples, largest first."""
    if k == 0:
        yield ()
    for first in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first, *rest)


def _hook_dimension(shape) -> int:
    """d_λ, the dimension of S_k's irreducible of shape λ (hook length formula)."""
    conjugate = [sum(part > j for part in shape) for j in range(shape[0])]
    hooks = math.prod(
        part - j + conjugate[j] - i - 1 for i, part in enumerate(shape) for j in range(part)
    )
    return factorial(sum(shape)) // hooks


def _independent(columns) -> list[dict[int, int]]:
    """The columns (sparse, {index: integer}) that are independent of the
    ones before them, by fraction-free elimination: each kept column is
    reduced against the echelon rows so far, without division, and its
    residue, divided by its content, joins them."""
    echelon: list[tuple[int, dict[int, int]]] = []
    kept = []
    for column in columns:
        v = column
        for p, row in echelon:
            f = v.get(p)
            if f:
                pivot = row[p]
                w = {i: pivot * c for i, c in v.items()}
                for i, c in row.items():
                    w[i] = w.get(i, 0) - f * c
                v = {i: c for i, c in w.items() if c}
        if v:
            content = math.gcd(*v.values())
            echelon.append((min(v), {i: c // content for i, c in v.items()}))
            kept.append(column)
    return kept


def _transpositions(k: int, swap, cycle) -> dict[tuple[int, int], tuple[int, ...]]:
    """π((i j)) for every i < j, composed from swap = π((0 1)) and cycle =
    π((0 1 ... k-1)) as the module docstring says."""
    inverse = {v: u for u, v in enumerate(cycle)}
    out = {(0, 1): swap}
    for i in range(1, k - 1):
        t = out[i - 1, i]
        out[i, i + 1] = tuple(cycle[t[inverse[u]]] for u in range(len(t)))
    for i in range(k - 3, -1, -1):
        t = out[i, i + 1]
        for j in range(i + 2, k):
            q = out[i + 1, j]
            out[i, j] = tuple(t[q[t[u]]] for u in range(len(t)))
    return out


def _group_sum(column: dict[int, int], groups, transpositions, sign: int) -> dict[int, int]:
    """Σ sign^σ·π(σ)·column over the σ that map each of the disjoint
    ascending `groups` onto itself, one pass per factor (1 + sign·J_j)."""
    for group in groups:
        for j in range(1, len(group)):
            out = dict(column)
            for i in range(j):
                t = transpositions[group[i], group[j]]
                for u, c in column.items():
                    out[t[u]] = out.get(t[u], 0) + sign * c
            column = {u: c for u, c in out.items() if c}
    return column


def _isotypic_bases(matrix, k: int, action):
    """(Y, d_λ) for each partition λ of k with m_λ > 0, Y being m_λ
    independent columns of π(e_T), as sparse {index: integer} dicts; None
    where `det_isotypic` falls back to `det_direct`."""
    n = len(matrix)
    if k == 1 or n <= 1:
        return None
    generators = []
    for sigma in fibre_generators(k):
        perm = action(sigma)
        if perm is None or not is_invariant(matrix, perm):
            return None
        generators.append(perm)
    transpositions = _transpositions(k, *generators)
    bases, total = [], 0
    for shape in _partitions(k):
        starts = itertools.accumulate(shape, initial=0)
        rows = [range(a, a + part) for a, part in zip(starts, shape)]
        columns = [[row[j] for row in rows if len(row) > j] for j in range(shape[0])]
        # e_T = (Σ_R r)(Σ_C sgn(c)·c): the column group acts first
        ys = _independent(
            _group_sum(_group_sum({u: 1}, columns, transpositions, -1), rows, transpositions, 1)
            for u in range(n)
        )
        if ys:
            d = _hook_dimension(shape)
            bases.append((ys, d))
            total += len(ys) * d
            if total >= n:
                break  # every later shape has m_λ = 0
    return bases if total == n else None


def det_isotypic(matrix, k: int, action) -> Poly:
    """Determinant of a square integer-polynomial matrix B that is invariant
    under an action of S_k on its indices, block by isotypic block.

    `action(sigma)` gives π(sigma), the index permutation of sigma in S_k
    (entry u is the index that u goes to), or None when sigma moves some
    index out of the matrix; π must be an action, π(sigma∘tau) =
    π(sigma)∘π(tau).
    B[π(sigma)[u]][π(sigma)[v]] must equal B[u][v]: that is checked
    exactly for (0 1) and the k-cycle, which generate S_k, and `action` is
    called for those two only. Each Young symmetrizer acts on a column as
    O(k²) sparse transposition passes, and the shapes stop once their
    blocks fill n. If the check fails, if `action` gives None, if k = 1 or
    n <= 1, or if the blocks do not add up to n, the result is
    `det_direct(B)`. The
    module docstring gives the formula and why it is exact.
    """
    bases = _isotypic_bases(matrix, k, action)
    if bases is None:
        return det_direct(matrix)
    # one C of every λ's columns, so that B is packed once
    entries = {p: p.coeffs for row in matrix for p in row}
    if not all(map(Poly.is_integral, entries)):
        raise ValueError("det_isotypic expects integer-coefficient entries")
    columns = [tuple(y.items()) for ys, _ in bases for y in ys]
    product = congruence(columns, matrix, columns, entries)
    numerator, denominator = Poly.one(), 1
    start = 0
    for ys, d in bases:
        stop = start + len(ys)
        block = det_direct(tuple(row[start:stop] for row in product[start:stop]))
        yy = [[sum(c * z.get(u, 0) for u, c in y.items()) for z in ys] for y in ys]
        scale = det_direct(tuple(tuple(Poly((c,)) for c in row) for row in yy)).coeffs[0]
        for _ in range(d):
            numerator = numerator * block
        denominator *= scale**d
        start = stop
    coeffs = []
    for c in numerator.coeffs:
        q, r = divmod(c, denominator)
        if r:
            raise ValueError("the isotypic blocks do not divide out exactly")
        coeffs.append(q)
    return Poly(coeffs)


def _components(nonzero) -> list[list[int]]:
    """Connected components of the graph joining u and v for every nonzero
    entry (u, v), as ascending index lists sorted by their first index."""
    uf = UnionFind(len(nonzero))
    for u, row in enumerate(nonzero):
        for v in row:
            uf.union(u, v)
    return uf.blocks()


def _restricted(gram, comp):
    """The fibre permutations of `gram.fibre_action` on the indices of
    `comp`, or None for a permutation that moves some member out of it."""
    position = {u: i for i, u in enumerate(comp)}

    def action(sigma):
        image = gram.fibre_action(sigma)
        perm = tuple(position.get(image[u]) for u in comp)
        return None if None in perm else perm

    return action


def _component_orbits(reduced, components, generators) -> UnionFind:
    """The components, which cover every index, grouped by the index
    permutations `generators`: g joins component C to the one holding g(C)
    when g maps C onto it and reduced[g(u)][g(v)] == reduced[u][v] for all
    u, v in C, checked entry by entry. Joined components have one block up to a simultaneous
    permutation, hence one determinant."""
    owner = {u: i for i, comp in enumerate(components) for u in comp}
    uf = UnionFind(len(components))
    for perm in generators:
        for i, comp in enumerate(components):
            j = owner[perm[comp[0]]]
            if uf.find(i) == uf.find(j):
                continue
            image = [perm[u] for u in comp]
            if sorted(image) != components[j]:
                continue
            # one row of the block at a time, read as tuples: equal entries
            # are mostly the same `Poly`, which compares by identity
            row, image_row = itemgetter(*comp), itemgetter(*image)
            if all(image_row(reduced[a]) == row(reduced[u]) for u, a in zip(comp, image)):
                uf.union(i, j)
    return uf


def det_blocks(decomposition) -> DetResult:
    """Determinant of the reduced matrix, as a product over the connected
    components of its nonzero pattern.

    An isolated diagonal entry equal to the named product polynomial keeps
    its atoms symbolic; any other isolated entry is a factor as it stands.
    A larger component contributes its determinant: from `det_isotypic`
    under the fibre permutations restricted to it when it lies in the rho
    cell, from `det_direct` otherwise. It is computed once per orbit of
    components under `gram.generators` (`_component_orbits`), at the
    orbit's first component, and read from a memo at the others.
    """
    gram, reduced = decomposition.gram, decomposition.reduced
    rho = set(dict(decomposition.cells).get(("rho",), ()))
    components = _components(decomposition.nonzero)
    orbits = _component_orbits(reduced, components, gram.generators)
    memo: dict[int, Poly] = {}
    factors: Counter[Poly] = Counter()
    for i, comp in enumerate(components):
        if len(comp) > 1:
            root = orbits.find(i)
            if root not in memo:
                block = tuple(tuple(reduced[a][b] for b in comp) for a in comp)
                if rho.issuperset(comp):
                    memo[root] = det_isotypic(block, gram.k, _restricted(gram, comp))
                else:
                    memo[root] = det_direct(block)
            factors[memo[root]] += 1
            continue
        (u,) = comp
        entry, key = reduced[u][u], gram.keys[u]
        if entry == gram.phi(key):
            factors.update(phi_atoms(*gram.doubled(key)))
        else:
            factors[entry] += 1
    return DetResult.from_counts(factors)
