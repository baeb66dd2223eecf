"""Exact univariate polynomials over arbitrary-precision rationals.

Coefficients are Python ints wherever possible and `fractions.Fraction`
otherwise; arithmetic never rounds. The named product families used for the
reduced Gram-matrix diagonals live here as `phi_z2`, the product of the atoms
that `phi_atoms` lists; the plain partition family's falling products
(x-s)...(x-s-r+1) are its slice phi_z2(0, s, 0, r).

The atoms x-m and x^2-x-2m have integer roots only: x^2-x-2m has rational
roots exactly when m = q(q-1)/2 for an integer q, and then factors as
(x-q)(x-(1-q)). A witness names the one of lower level that vanishes at an
integer q, the quadratic at equal m, for m < max(8, deg + 2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

Scalar = Union[int, Fraction]

__all__ = ["Poly", "congruence", "phi_atoms", "phi_z2", "quadratic_factor", "linear_factor"]


def _normalize_scalar(c: Scalar) -> Scalar:
    if type(c) is int:  # the common case, without the ABC instance check
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Poly:
    """Dense exact polynomial; `coeffs[i]` multiplies x**i, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_normalize_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

    @classmethod
    def monomial(cls, exponent: int, coeff: Scalar = 1) -> "Poly":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls([0] * exponent + [coeff])

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of a nonzero polynomial; the zero polynomial returns -1."""
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def scalar_mul(self, c: Scalar) -> "Poly":
        if c == 0:
            return _ZERO
        return Poly([c * a for a in self.coeffs])

    def eval_at(self, q: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return _normalize_scalar(acc)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = -c if c < 0 else c
            if e == 0:
                body = str(mag)
            else:
                xpow = "x" if e == 1 else f"x^{e}"
                body = xpow if mag == 1 else f"{mag}*{xpow}"
            terms.append(sign + body)
        return "".join(terms)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    def to_json(self) -> list[str]:
        """Ascending coefficients as exact decimal strings (big-int safe)."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_packed(cls, value: int, width: int) -> "Poly":
        """The polynomial whose coefficients are the balanced base-2**width
        digits of `value`: the inverse of p -> p(2**width) on integer
        polynomials whose coefficients are below 2**(width-1) in absolute
        value (Kronecker substitution). A width below 2 has no such digits
        and raises ValueError."""
        if width < 2:
            raise ValueError(f"packed width must be at least 2, got {width}")
        base = 1 << width
        half = base >> 1
        coeffs = []
        while value:
            digit = value & (base - 1)
            if digit >= half:
                digit -= base
            coeffs.append(digit)
            value = (value - digit) >> width
        return cls(coeffs)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)


_ZERO = Poly([])
_ONE = Poly([1])


def congruence(left, rows, right, coeffs) -> tuple[tuple[Poly, ...], ...]:
    """L'BR as p dense rows of m `Poly`s, equal results sharing one `Poly`.

    L and R are p and m sparse integer columns ((u, c), ...) over the n
    indices of B; B is n rows of hashable entries, an entry e standing for
    the polynomial with ascending integer coefficients `coeffs[e]`. A
    congruence C'BC passes C as both sides.

    Kronecker substitution (von zur Gathen & Gerhard, Modern Computer
    Algebra, 8.4) turns a polynomial p into the integer p(2**width). A
    coefficient of (L'BR)[u][j] is a sum of products L[w][u] B[w][i]_e
    R[i][j], at most L1(L_u) L1(R_j) top <= norm top in absolute value, with
    norm the product of the largest column L1 norms of L and of R, each
    taken as at least 1, and top the largest absolute coefficient of B;
    those of L'B and B obey the same bound. With width = bitlen(norm top) +
    1 each is below 2**(width-1), so the balanced base-2**width digits of a
    packed entry are its coefficients (`Poly.from_packed`). An entry of at
    most d coefficients, d the longest of B's, is then below 2**(width*d)
    in absolute value, and a slot of width*d//8 + 1 bytes holds it with its
    sign. A row of B or of L'B, or a column of L'BR, is one integer of such
    slots: a row of L'B is a sum of multiples of packed rows of B over a
    column of L, a column of L'BR a sum of multiples of packed columns of
    L'B over a column of R, and the transpose in between is a strided copy
    of bytes, every slot biased by half its range to be nonnegative.

    The rows of B are streamed: each row that L reads is packed once, added
    with its coefficient into every row of L'B that reads it, and dropped,
    so one packed row of B is alive at a time beside the p rows of L'B.
    The packed rows of L'B are dropped once their transpose is built, and
    those columns once L'BR is.
    """
    n, p = len(rows), len(left)

    def largest_norm(columns) -> int:
        return max([1, *(sum(abs(c) for _, c in col) for col in columns)])

    norm = largest_norm(left) * largest_norm(right)
    top = max((abs(c) for cs in coeffs.values() for c in cs), default=0)
    width = (norm * top).bit_length() + 1
    size = width * max(map(len, coeffs.values()), default=0) // 8 + 1  # bytes per slot
    bits = 8 * size
    half = 1 << bits - 1
    slot = {
        entry: (half + sum(c << width * e for e, c in enumerate(cs))).to_bytes(size, "little")
        for entry, cs in coeffs.items()
    }
    biased_zero = half.to_bytes(size, "little")
    row_bias = int.from_bytes(biased_zero * n, "little")
    col_bias = int.from_bytes(biased_zero * p, "little")
    reads: dict[int, list[tuple[int, int]]] = {}  # row w of B -> (column of L, c)
    for u, col in enumerate(left):
        for w, c in col:
            reads.setdefault(w, []).append((u, c))
    left_rows = [0] * p  # L'B
    for w, uses in reads.items():
        row = int.from_bytes(b"".join(map(slot.__getitem__, rows[w])), "little") - row_bias
        for u, c in uses:
            left_rows[u] += c * row
        del row  # before the next row is packed
    del reads
    left_cols = _transpose(left_rows, n, size, row_bias, col_bias)
    del left_rows
    out_cols = [sum(c * left_cols[i] for i, c in col) for col in right]  # L'BR
    del left_cols
    mask = (1 << bits) - 1
    polys: dict[int, Poly] = {}
    out = []
    for value in out_cols:
        value += col_bias
        col = [_ZERO] * p
        nonzero = value ^ col_bias  # nonzero exactly in the slots of nonzero entries
        while nonzero:
            u = (nonzero.bit_length() - 1) // bits
            low = bits * u
            entry = (value >> low & mask) - half
            if entry not in polys:
                polys[entry] = Poly.from_packed(entry, width)
            col[u] = polys[entry]
            nonzero &= (1 << low) - 1
        out.append(col)
    return tuple(zip(*out)) if out else ((),) * p


def _transpose(rows: list[int], n: int, size: int, row_bias: int, col_bias: int) -> list[int]:
    """Packed columns of the matrix with the m packed rows `rows` of n slots
    of `size` bytes; `row_bias` and `col_bias` add half a slot's range to
    every slot of a row and of a column, so the slots are plain bytes and a
    column is gathered by strided slices."""
    stride = n * size
    data = b"".join((row + row_bias).to_bytes(stride, "little") for row in rows)
    cols = []
    for j in range(n):
        col = bytearray(len(rows) * size)
        for b in range(size):
            col[b::size] = data[j * size + b :: stride]
        cols.append(int.from_bytes(col, "little") - col_bias)
    return cols


def quadratic_factor(m: int) -> Poly:
    """x^2 - x - 2m, the quadratic attached to level m."""
    return Poly([-2 * m, -1, 1])


def linear_factor(m: int) -> Poly:
    """x - m."""
    return Poly([-m, 1])


def phi_atoms(s1: int, s2: int, r1: int, r2: int) -> list[Poly]:
    """The factors of phi_z2(s1, s2, r1, r2): r1 quadratics x^2-x-2(s1+j),
    then r2 linear factors x-(s2+l); a negative count lists none."""
    return [quadratic_factor(s1 + j) for j in range(r1)] + [
        linear_factor(s2 + l) for l in range(r2)
    ]


@lru_cache(maxsize=None)
def phi_z2(s1: int, s2: int, r1: int, r2: int) -> Poly:
    """Reduced diagonal polynomial for a cell with r1 paired and r2 fixed edges.

    The product of `phi_atoms(s1, s2, r1, r2)`; empty products are 1, and the
    convention for negative r1 or r2 is the zero polynomial. Memoised: a
    `Poly` is immutable, and the arguments met at a given k are O(k**4)
    small integers.
    """
    if r1 < 0 or r2 < 0:
        return Poly.zero()
    return math.prod(phi_atoms(s1, s2, r1, r2), start=Poly.one())
