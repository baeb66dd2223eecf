"""Semisimplicity verdicts from the assembled Gram determinants.

The product of the Gram determinants over every admissible through-class
profile is the obstruction polynomial f: the algebra at an exact rational
parameter value is flagged non-semisimple as soon as any retained factor of
f vanishes there. Only the profiles whose cell-module Gram matrices coincide
with the combinatorial ones are assembled, so a "semisimple" answer is
relative to the implemented factors; a "not semisimple" answer is
unconditional.

A witness cites the vanishing factor, or the atom of phi that vanishes at q
and divides it (`_vanishing_atom`): only an integer q is a root of an atom.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .determinant import DetResult, det_blocks
from .families import FAMILIES
from .gram import DEFAULT_GUARD, check_window
from .polynomials import Poly, linear_factor, quadratic_factor
from .reduction import reduced_decomposition

__all__ = ["FactorRecord", "Verdict", "admissible_profiles", "global_poly", "verdict"]


class FactorRecord(NamedTuple):
    """One retained determinant factor with its profile of origin."""

    s1: int
    s2: int
    poly: Poly

    def describe_at(self, q) -> str:
        """Human-readable witness; cites a named atom when one divides."""
        return str(_vanishing_atom(self.poly, q) or self.poly)


def _vanishing_atom(poly: Poly, q) -> Poly | None:
    """The first atom, by ascending level m < max(8, deg + 2) and the
    quadratic before the linear one at equal m, that vanishes at q and
    divides poly.

    Atoms have integer roots only: x-q at level q, and x^2-x-2m =
    (x-q)(x-(1-q)) at level m = q(q-1)/2. Both are monic with simple roots,
    so one divides poly exactly when poly vanishes at its roots.
    """
    q = Fraction(q)
    if q.denominator != 1:
        return None
    q = q.numerator
    level = q * (q - 1) // 2
    atoms = [(level, quadratic_factor(level), (q, 1 - q)), (q, linear_factor(q), (q,))]
    bound = max(8, poly.degree() + 2)
    for m, atom, roots in sorted(atoms, key=lambda a: a[0]):  # stable: quadratic first
        if 0 <= m < bound and all(poly.eval_at(r) == 0 for r in roots):
            return atom
    return None


class Verdict(NamedTuple):
    algebra: str
    k: int
    q: Fraction | None  # None means the symbolic, indeterminate parameter
    semisimple: bool
    witnesses: tuple[tuple[int, int, str], ...]
    caveat: str

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "k": self.k,
            "q": None if self.q is None else str(self.q),
            "semisimple": self.semisimple,
            "witnesses": [
                {"s1": s1, "s2": s2, "factor": desc} for s1, s2, desc in self.witnesses
            ],
            "caveat": self.caveat,
        }


CAVEAT = (
    "semisimple means: no implemented Gram-determinant factor vanishes; "
    "profiles outside the coincidence cases are not examined"
)


def admissible_profiles(algebra: str, k: int):
    """Profiles (s1, s2) whose Gram matrix is assembled for the product."""
    return FAMILIES[algebra].profiles(k)


@lru_cache(maxsize=0)  # caches nothing: counts calls for perfbench's cache_info()
def global_poly(algebra: str, k: int, guard: int = DEFAULT_GUARD):
    """Obstruction polynomial with its factor records, over all profiles.

    The result keeps the merged factors of every profile; its `poly` is
    multiplied out only when read. The loop keeps no profile, and nothing
    below it caches one: the decomposition goes straight to `det_blocks`,
    so each profile's basis, matrix and reduction are released before the
    next profile is reduced. Nor is the result cached: a CLI call asks for
    it once.
    """
    check_window(algebra, k, 0, 0)
    records: list[FactorRecord] = []
    factors: Counter[Poly] = Counter()
    for s1, s2 in admissible_profiles(algebra, k):
        result = det_blocks(reduced_decomposition(algebra, k, s1, s2, guard))
        for factor, mult in result.factored:
            factors[factor] += mult
            if factor.degree() > 0:
                records.append(FactorRecord(s1, s2, factor))
    return DetResult.from_counts(factors), tuple(records)


def verdict(
    algebra: str, k: int, q: Fraction | int | None, guard: int = DEFAULT_GUARD
) -> Verdict:
    """Decide semisimplicity at an exact rational q (None for symbolic).

    Raises ResourceGuardError when a profile's Gram matrix would exceed
    `guard` rows.
    """
    if isinstance(q, float):
        raise TypeError("q must be an exact rational, not a float")
    result, records = global_poly(algebra, k, guard)
    if q is None:
        # over the rational function field the obstruction vanishes only
        # when one of its factors is the zero polynomial
        nonzero = not any(factor.is_zero() for factor, _ in result.factored)
        return Verdict(algebra, k, None, nonzero, (), CAVEAT)
    q = Fraction(q)
    witnesses = tuple(
        (rec.s1, rec.s2, rec.describe_at(q))
        for rec in records
        if rec.poly.eval_at(q) == 0
    )
    return Verdict(algebra, k, q, not witnesses, witnesses, CAVEAT)
