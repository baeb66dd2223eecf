"""Exact determinants of polynomial matrices by evaluation-interpolation.

Polynomial matrices here have integer coefficients; `det_direct` recovers
the determinant from integer determinants (fraction-free Bareiss
elimination) at enough consecutive integer points, followed by exact
Lagrange interpolation over the rationals. Applied to a whole Gram matrix
it is independent of the block reduction and cross-validates it; it is also
the production path for every coupled component of a reduced matrix.

`det_blocks` reads the reduced matrix's nonzero pattern
(`BlockDecomposition.nonzero`): with rows and columns permuted alike so
that each connected component of the pattern is contiguous, the matrix is
block diagonal, so its determinant is the product of the components'.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .partitions import UnionFind
from .polynomials import Poly, linear_factor, quadratic_factor

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
    """Fraction-free determinant of an integer matrix (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
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
            mr = m[r]
            mi = m[i]
            factor = mr[i]
            for c in range(i + 1, n):
                mr[c] = (piv * mr[c] - factor * mi[c]) // prev
            mr[i] = 0
        prev = piv
    return sign * m[n - 1][n - 1]


def _interpolate(xs: list[int], ys: list[int]) -> Poly:
    """Exact Newton interpolation through (xs[i], ys[i])."""
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


def det_direct(matrix) -> Poly:
    """Determinant of a square polynomial matrix, exactly.

    Degree bound: sum over rows of the maximal entry degree. The matrix is
    evaluated at the integers 0..bound; each integer determinant is computed
    by fraction-free elimination and the results are interpolated.
    """
    n = len(matrix)
    if n == 0:
        return Poly.one()
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    bound = 0
    for row in matrix:
        degrees = [p.degree() for p in row if not p.is_zero()]
        if not degrees:
            return Poly.zero()
        bound += max(degrees)
    xs = list(range(bound + 1))

    def det_at(x: int) -> int:
        rows = []
        for row in matrix:
            vals = []
            for p in row:
                val = p.eval_at(x)
                if not isinstance(val, int):
                    raise ValueError("det_direct expects integer-coefficient entries")
                vals.append(val)
            rows.append(vals)
        return _bareiss_int(rows)

    return _interpolate(xs, [det_at(x) for x in xs])


def _components(nonzero) -> list[list[int]]:
    """Connected components of the graph joining u and v for every nonzero
    entry (u, v), as ascending index lists sorted by their first index."""
    uf = UnionFind(len(nonzero))
    for u, row in enumerate(nonzero):
        for v in row:
            uf.union(u, v)
    return uf.blocks()


def _phi_atoms(s1: int, s2: int, r1: int, r2: int) -> list[Poly]:
    """Factors of phi_z2(s1, s2, r1, r2), in doubled coordinates."""
    return [quadratic_factor(s1 + j) for j in range(r1)] + [
        linear_factor(s2 + l) for l in range(r2)
    ]


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
            factors.update(_phi_atoms(*gram.doubled(key)))
        else:
            factors[entry] += 1
    return DetResult.from_counts(factors)
