"""Exact determinants of polynomial matrices by evaluation-interpolation.

Polynomial matrices here have integer coefficients. `det_direct` reads
only the matrix it is given: it is the production path for every coupled
component of a reduced matrix outside the rho cell, and it takes every
determinant that `det_isotypic` splits off. `det_isotypic` splits a matrix
that the fibre permutations leave invariant into one small block per
partition of k; applied to a whole Gram matrix by the `det` command it is
independent of the block reduction and cross-validates it. Both take
symmetric matrices only (see "Symmetric input").

Components. `det_direct` first splits its input along the connected
components of its own nonzero pattern. With rows and columns permuted
alike, which leaves the determinant as it is, each component is a
contiguous diagonal block, so the determinant is the product of theirs
(a reduced matrix handed in whole, as `verify` does, has up to 31 of them
on the k=3 profiles). It finds them with its own union-find, not with
`_components`, whose calls `perfbench` counts as the components of the
reduced matrices `det_blocks` splits. Each block is eliminated as below
(`_eliminate`).

Symmetric input. Every determinant taken here is of a symmetric matrix:
a whole Gram matrix G, T'GT and its components, Y'BY and Y'Y.
`det_direct` checks this once, where a matrix comes in, and raises
ValueError on any other input; everything below relies on it.

Shift. Let v_i and h_i be the lowest and the highest power of x in row i.
Every term of the Leibniz expansion takes one entry from each row, so it
is divisible by x^(Σv_i) and has degree at most Σh_i. Hence
det = x^(Σv_i)·Q, where Q is the determinant of the matrix with row i
divided by x^(v_i), and deg Q <= D = Σ(h_i - v_i). Dividing rows by
different powers would make the matrix asymmetric, so at x != 0 every
entry is divided only by x^c, c = min v_i, the least valuation of any
entry: the determinant there is x^(Σv_i - n·c)·Q(x), and Q(x) is that
integer divided by x^(Σv_i - n·c), exactly (a remainder raises
ValueError). At x = 0, Q(0) = det R, R[i][j] the coefficient of x^(v_i)
in M[i][j]. If R[i][j] != 0, then M[i][j] = M[j][i], a nonzero entry of
row j, has valuation v_i or less and at least v_j, so v_j <= v_i. Ordered
by v, R is block lower-triangular, and its diagonal blocks (v_i = v_j)
are symmetric; so Q(0) is the determinant of the kept matrix, which keeps
R's entries with v_i = v_j and sets the others to 0, and is symmetric.
For instance [[x, x²], [x², x²]] has v = (1, 2) and R = [[1, 0], [1, 1]];
the kept matrix is the identity, and Q = 1 - x.

Points. Q is evaluated either at one packed point or at a window of D+1
integers, whichever is cheaper for its size.

Packed point. Write ‖p‖₁ for the sum of the absolute values of p's
coefficients, and let H² = Π_i Σ_j ‖M_ij‖₁², an exact integer. Every
coefficient c_j of Q has |c_j| <= H. For, c_j is the j-th Fourier
coefficient of Q on the unit circle, so |c_j| <= max over |z| = 1 of
|Q(z)|, and there |Q(z)| = |det M(z)| since |z^(Σv_i)| = 1. By Hadamard's
inequality |det M(z)| <= Π_i (Σ_j |M_ij(z)|²)^(1/2), and
|M_ij(z)| <= ‖M_ij‖₁ on |z| = 1, so |det M(z)| <= H. With
w = (bit length of H² + 1)//2 + 1, H² < 2^(2w-2), so H < 2^(w-1): the
coefficients of Q are the balanced base-2^w digits of the one integer
Q(2^w) (Kronecker substitution; von zur Gathen & Gerhard, Modern Computer
Algebra, §8.4), and one elimination at x = 2^w takes the place of D+1.
Its integers grow to about w·(D+1) bits, and each exact division in the
elimination costs about the square of their length, so above
`_PACKED_BITS` bits (measured on this module's own calls) the window
below is cheaper.

Window. Otherwise Q is evaluated at the D+1 consecutive integers
-⌊D/2⌋..⌈D/2⌉, which keeps |x|, and with it the integers of the
elimination, small.

Elimination. Each integer determinant comes from fraction-free Bareiss
elimination (Bareiss, Math. Comp. 22, 1968), pivoting on the diagonal.
With P[0] = 1 and P[j] the pivot of step j, step j turns a row r into
(P[j]·r - f·pivot_row) / P[j-1], f its entry in the pivot column. For
f = 0 that is r·P[j]/P[j-1], so a row that steps a+1..k skip has the
level-k values r·P[k]/P[a]: the factors telescope. Such a row is left as
it is and carries its level a; the pivot row is brought to the current
level once, and a row with f != 0 is rewritten with the divisor P[a] of
its own last rewrite. The level-k value at (i, j) is the bordered minor on
rows 0..k-1, i and columns 0..k-1, j (Sylvester's identity), so each
division is exact, and it is the transpose of the one at (j, i): the
level-k matrix S is symmetric and `_bareiss_int` rewrites only its upper
triangle. A Gram matrix is sparse (z2 k=4 (2,0): 12.7% nonzeros), and most
rows have f = 0 at most steps. A zero pivot S[k][k] with a nonzero entry
S[k][p] in its row adds t times index p to index k in rows and columns
alike, t = ±1. That is a congruence E'AE of the input by a unimodular E
that fixes indices 0..k-1: the leading block, hence the pivots so far, and
the determinant stay as they are, and the level-k matrix of E'AE is E'SE
(the Schur complement transforms the same way), which differs from S only
in row and column k. The new pivot is 2t·S[k][p] + S[p][p], and t = 1 or
t = -1 makes it nonzero. A zero row of S makes the determinant 0.

Interpolation. At the packed point, Q's coefficients are read off as the
digits of its value (`Poly.from_packed`). On the window, Q has integer
coefficients, so D!·Q, written in Newton's forward form on the window, has
integer coefficients too, and dividing them by D! leaves no remainder. A
remainder can only come from values that no integer polynomial of degree
<= D takes, and it raises ValueError.

Isotypic blocks. Let π be a permutation action of S_k on the indices of
B with B[π(g)u][π(g)v] = B[u][v], for instance the fibre permutations on
a Gram matrix (the first two of `GramMatrix.generators` are π((0 1)) and
π((0 1 ... k-1))) or on a rho component of its reduction. Then the
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
generators (0 1) and (0 1 ... k-1), whose index permutations the caller
passes. If it fails, if there are none (k = 1, or one moves an index out
of a rho component), if n <= 1, or if Σ m_λ d_λ differs from n, the
determinant is `det_direct(B)`.

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
from functools import cached_property
from math import factorial
from operator import itemgetter, mul, sub

from .gram import is_invariant
from .partitions import UnionFind
from .polynomials import Poly, congruence, phi_atoms

__all__ = ["DetResult", "det_direct", "det_isotypic", "det_blocks"]

# `_eliminate` evaluates Q at one packed point while w·(D+1), about the
# packed value's size in bits, is at most this, and at D+1 small points
# above it (module docstring, "Packed point"). Timed on 2 vCPUs over 343
# distinct calls, one point was never slower up to 15,000 bits and slower
# on 14 of the 15 calls from 17,850 bits on.
_PACKED_BITS = 16_000


class DetResult:
    """A determinant kept as its factors: (factor, multiplicity) pairs.

    `poly` multiplies the factors out on first access and caches the
    product on the instance, so callers that only read the factors never
    pay for the (possibly large) product. Immutable; two results are equal
    when their factors are.
    """

    def __init__(self, factored: tuple[tuple[Poly, int], ...]):
        self.__dict__["factored"] = factored

    def __setattr__(self, name, value):
        raise AttributeError("DetResult is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is DetResult and self.factored == other.factored

    def __hash__(self) -> int:
        return hash(self.factored)

    def __repr__(self) -> str:
        return f"DetResult({self.factored!r})"

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
    """Fraction-free determinant of a symmetric integer matrix (Bareiss),
    over its upper triangle, as the module docstring's "Elimination" says.

    Row i is kept as its entries in columns i.. at the level a of its last
    rewrite; its entries in columns k..i-1 are those of rows k..i-1 in
    column i. Step k+1 pivots on the diagonal: f for row i is the pivot
    row's entry in column i, at level k, and f·P[a] // P[k] at the row's
    own level, exact since steps a+1..k left the whole row as r·P[k]/P[a].
    A zero pivot takes p, the first column with a nonzero entry b in the
    pivot row, and adds t times index p to index k, t = ±1 so that the new
    pivot 2tb + S[p][p] is not 0 (the two signs cannot both give 0); a zero
    pivot row makes the determinant 0. The pivots so far and the
    determinant stay as they are, so the result is the last pivot, without
    a sign. The input is read, not rewritten.
    """
    n = len(rows)
    upper = [row[i:] for i, row in enumerate(rows)]
    levels = [0] * n
    pivots = [1]
    for k in range(n):
        a, head = levels[k], upper[k]
        scale = pivots[k]
        if a < k:
            head = [v * scale // pivots[a] for v in head]
        if not head[0]:
            for p, b in enumerate(head):
                if b:
                    break
            else:
                return 0
            p += k
            # row p of S: column p of rows k..p-1, then row p itself
            other = [upper[j][p - j] * scale // pivots[levels[j]] for j in range(k, p)]
            other += [v * scale // pivots[levels[p]] for v in upper[p]]
            d = other[p - k]
            t = 1 if 2 * b + d else -1
            head = [u + t * v for u, v in zip(head, other)]
            head[0] = 2 * t * b + d
        piv = head[0]
        for i in range(k + 1, n):
            f = head[i - k]
            if f:
                a = levels[i]
                prev = pivots[a]
                if a < k:
                    f = f * prev // scale
                upper[i] = [(piv * u - f * v) // prev for u, v in zip(upper[i], head[i - k :])]
                levels[i] = k + 1
        pivots.append(piv)
    return pivots[-1]


def _interpolate(xs: list[int], ys: list[int], width: int | None = None) -> Poly:
    """The polynomial of degree at most D = len(xs) - 1 through
    (xs[i], ys[i]), for consecutive integers xs and integers ys.

    Newton's forward formula scaled by D! has integer coefficients:
    D!·p(x) = Σ_j (Δ^j y_0 · D!/j!) · (x - xs[0])···(x - xs[j-1]), with
    Δ^j y_0 the forward differences of ys. A Horner pass expands it in
    integers, and each coefficient is then divided by D!. A nonzero
    remainder means p has a non-integer coefficient and raises ValueError.

    With `width`, xs is the one packed point [2**width] and p is read from
    its value as balanced base-2**width digits (`Poly.from_packed`): the
    integer polynomial through that point whose coefficients are below
    2**(width-1) in absolute value.
    """
    if width is not None:
        if xs != [1 << width]:
            raise ValueError("_interpolate expects the one packed point 2**width")
        return Poly.from_packed(ys[0], width)
    if any(b - a != 1 for a, b in zip(xs, xs[1:])):
        raise ValueError("_interpolate expects consecutive integer points")
    diffs = []
    level = list(ys)
    while level:
        diffs.append(level[0])
        level = list(map(sub, level[1:], level))
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
    """Determinant of a square symmetric polynomial matrix with integer
    coefficients, exactly.

    The matrix is split along the connected components of its own nonzero
    pattern, the graph joining u and v for every nonzero entry (u, v): with
    rows and columns permuted alike so that each component is contiguous,
    the matrix is block diagonal, so its determinant is the product of the
    components' determinants, each from `_eliminate`. A matrix that is not
    symmetric, or an entry with a non-integer coefficient, raises ValueError
    before any evaluation.
    """
    n = len(matrix)
    if n == 0:
        return Poly.one()
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    # rows against columns as tuples: equal entries are mostly the same
    # `Poly`, which compares by identity
    if any(tuple(row) != column for row, column in zip(matrix, zip(*matrix))):
        raise ValueError("det_direct expects a symmetric matrix")
    integral: set[Poly] = set()
    pattern = UnionFind(n)
    for u, row in enumerate(matrix):
        for v in range(u, n):
            p = row[v]
            if p:
                pattern.union(u, v)
                if p not in integral:
                    if not p.is_integral():
                        raise ValueError("det_direct expects integer-coefficient entries")
                    integral.add(p)
    det = None
    for comp in pattern.blocks():
        part = _eliminate(tuple(tuple(matrix[a][b] for b in comp) for a in comp))
        det = part if det is None else det * part
        if not det:
            break  # a zero row is a component of its own
    return det


def _eliminate(matrix) -> Poly:
    """Determinant of a square symmetric matrix of integer polynomials by
    evaluation, Bareiss elimination and interpolation, whatever its nonzero
    pattern.

    With v_i the lowest power of x in row i, det = x^(Σv_i)·Q with
    deg Q <= D = Σ(h_i - v_i), h_i the row's highest power (see the module
    docstring). Every coefficient of Q is below 2^(w-1) in absolute value,
    w from Hadamard's bound H² = Π_i Σ_j ‖M_ij‖₁². While w·(D+1) <=
    `_PACKED_BITS`, Q is evaluated at the one point 2^w and its
    coefficients are the balanced base-2^w digits of that value. Otherwise
    it is evaluated at the D+1 integers -⌊D/2⌋..⌈D/2⌉ and interpolated;
    since Q has integer coefficients, the interpolation's division by D!
    is exact. Each entry at a point comes from one table of powers of x.
    `det_direct` checks that the coefficients are integers and that
    the matrix is symmetric. At x != 0 every entry is divided by the common
    x^c, c = min v_i, so that the matrix stays symmetric, and each value by
    x^(Σv_i - n·c); the table holds the entries divided by x^c. Q(0) is the
    determinant of the kept matrix: the coefficient of x^(v_i) at (i, j)
    where v_i = v_j, and 0 elsewhere.
    """
    lowest: dict[Poly, int] = {}
    squares: dict[Poly, int] = {}  # the entries' squared coefficient 1-norms
    for row in matrix:
        for p in row:
            if p and p not in lowest:
                lowest[p] = next(e for e, c in enumerate(p.coeffs) if c)
                squares[p] = sum(map(abs, p.coeffs)) ** 2
    valuations = []
    bound = 0
    hadamard = 1
    for row in matrix:
        nonzero = [p for p in row if p]
        if not nonzero:
            return Poly.zero()
        v = min(lowest[p] for p in nonzero)
        valuations.append(v)
        bound += max(p.degree() for p in nonzero) - v
        hadamard *= sum(squares[p] for p in nonzero)
    valuation = sum(valuations)
    # each row as indices into the distinct shifted entries' coefficient
    # tuples, numbered in order of appearance; the zero entry is () at 0
    shift = min(valuations)
    index: dict[tuple[int, ...], int] = {(): 0}
    rows = [[index.setdefault(p.coeffs[shift:], len(index)) for p in row] for row in matrix]
    excess = valuation - shift * len(matrix)
    table = list(index)
    width = max(map(len, table))

    def det_at(x: int) -> int:
        if excess and not x:
            return _bareiss_int(
                [[p.coeffs[v] if p and w == v else 0 for w, p in zip(valuations, row)]
                 for v, row in zip(valuations, matrix)]
            )
        powers = [1]
        for _ in range(width - 1):
            powers.append(powers[-1] * x)
        values = [sum(map(mul, coeffs, powers)) for coeffs in table]
        det = _bareiss_int([list(map(values.__getitem__, keys)) for keys in rows])
        if not excess:
            return det
        q, r = divmod(det, x**excess)
        if r:
            raise ValueError("the determinant is not divisible by the common shift")
        return q

    # w of the module docstring: |each coefficient of Q| <= H < 2**(digits - 1)
    digits = (hadamard.bit_length() + 1) // 2 + 1
    if digits * (bound + 1) <= _PACKED_BITS:
        x = 1 << digits
        q = _interpolate([x], [det_at(x)], digits)
    else:
        xs = list(range(-(bound // 2), bound - bound // 2 + 1))
        q = _interpolate(xs, [det_at(x) for x in xs])
    return Poly((0,) * valuation + q.coeffs) if valuation else q


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


def _isotypic_bases(matrix, k: int, generators):
    """(Y, d_λ) for each partition λ of k with m_λ > 0, Y being m_λ
    independent columns of π(e_T), as sparse {index: integer} dicts; None
    where `det_isotypic` falls back to `det_direct`."""
    n = len(matrix)
    if k == 1 or n <= 1 or generators is None:
        return None
    if not all(is_invariant(matrix, perm) for perm in generators):
        return None
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


def det_isotypic(matrix, k: int, generators) -> Poly:
    """Determinant of a square symmetric integer-polynomial matrix B that
    is invariant under an action π of S_k on its indices, block by
    isotypic block. Symmetry is the contract of `det_direct`, which takes
    the blocks and the fallback.

    `generators` is the pair π((0 1)), π((0 1 ... k-1)) of index
    permutations (entry u is the index that u goes to), or None when there
    is no such pair. These two generate S_k, and
    B[π(sigma)[u]][π(sigma)[v]] == B[u][v] is checked exactly for them.
    Each Young symmetrizer acts on a column as O(k²) sparse transposition
    passes, and the shapes stop once their blocks fill n. If the check
    fails, if `generators` is None, if k = 1 or n <= 1, or if the blocks do
    not add up to n, the result is `det_direct(B)`. The module docstring
    gives the formula and why it is exact.
    """
    bases = _isotypic_bases(matrix, k, generators)
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
    """π((0 1)) and π((0 1 ... k-1)), the first two of `gram.generators`,
    on the indices of `comp`; None at k = 1, where there are none, or when
    one of them moves some member out of `comp`."""
    if gram.k == 1:
        return None
    position = {u: i for i, u in enumerate(comp)}
    pair = tuple(tuple(position.get(perm[u]) for u in comp) for perm in gram.generators[:2])
    return None if any(None in perm for perm in pair) else pair


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
