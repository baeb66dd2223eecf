"""Exact determinants of polynomial matrices by evaluation-interpolation.

Polynomial matrices here have integer coefficients. `det_direct` reads
only the matrix it is given: applied to a whole Gram matrix it is
independent of the block reduction and cross-validates it; it is also the
production path for every coupled component of a reduced matrix.

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

`det_blocks` reads the reduced matrix's nonzero pattern
(`BlockDecomposition.nonzero`): with rows and columns permuted alike so
that each connected component of the pattern is contiguous, the matrix is
block diagonal, so its determinant is the product of the components'.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import factorial
from operator import mul

from .partitions import UnionFind
from .polynomials import Poly, phi_atoms

__all__ = ["DetResult", "det_direct", "det_blocks"]


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

    Row i is divided by x^(v_i), its lowest power of x, which leaves
    det = x^(Σv_i)·Q with deg Q <= D = Σ(h_i - v_i), h_i the row's highest
    power (see the module docstring). Q is evaluated at the D+1 integers
    -⌊D/2⌋..⌈D/2⌉, each entry from one table of powers of x per point,
    and interpolated; since Q has integer coefficients, the
    interpolation's division by D! is exact. An entry with a non-integer
    coefficient raises ValueError before any evaluation.
    """
    n = len(matrix)
    if n == 0:
        return Poly.one()
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    lowest: dict[Poly, int] = {}
    for row in matrix:
        for p in row:
            if p and p not in lowest:
                if not p.is_integral():
                    raise ValueError("det_direct expects integer-coefficient entries")
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


def _components(nonzero) -> list[list[int]]:
    """Connected components of the graph joining u and v for every nonzero
    entry (u, v), as ascending index lists sorted by their first index."""
    uf = UnionFind(len(nonzero))
    for u, row in enumerate(nonzero):
        for v in row:
            uf.union(u, v)
    return uf.blocks()


def det_blocks(decomposition) -> DetResult:
    """Determinant of the reduced matrix, as a product over the connected
    components of its nonzero pattern.

    An isolated diagonal entry equal to the named product polynomial keeps
    its atoms symbolic; any other isolated entry is a factor as it stands,
    and a larger component contributes its `det_direct` determinant.
    """
    gram, reduced = decomposition.gram, decomposition.reduced
    factors: Counter[Poly] = Counter()
    for comp in _components(decomposition.nonzero):
        if len(comp) > 1:
            factors[det_direct(tuple(tuple(reduced[i][j] for j in comp) for i in comp))] += 1
            continue
        (u,) = comp
        entry, key = reduced[u][u], gram.keys[u]
        if entry == gram.phi(key):
            factors.update(phi_atoms(*gram.doubled(key)))
        else:
            factors[entry] += 1
    return DetResult.from_counts(factors)
