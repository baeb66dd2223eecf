"""Aggregated verification suite backing both `pytest` and the CLI.

`run_all_checks` visits each profile once, in the order of `FAMILIES` and
then of k and (s1, s2): it reduces the profile (`reduced_decomposition`,
which builds its Gram matrix) and hands the decomposition to each
per-profile check that applies there. A check returns its failures as a
list of strings and never loops over profiles; `run_all_checks` puts the
profile's tag in front of each failure and adds up the seconds per check,
and drops the decomposition before it reduces the next profile.
The three global checks take no argument and return their failures the same
way. The plain partition family runs one size higher. Every check is exact:
no tolerance anywhere.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache, partial
from itertools import product
from typing import NamedTuple

from .determinant import det_blocks, det_direct
from .families import FAMILIES
from .gram import DEFAULT_GUARD, WindowError
from .polynomials import Poly, phi_z2
from .reduction import (
    block_types,
    coarsening_poset,
    diagram_coarser_or_equal,
    minimal_common_coarsening,
    reduced_decomposition,
)
from .stirling import binomial, coarser_profile_counts, gen_stirling_z2

__all__ = ["CheckResult", "run_all_checks"]


class CheckResult(NamedTuple):
    name: str
    ok: bool
    details: str
    seconds: float


# -- per-profile checks: each reads one profile's decomposition ------------------


def check_gram_invariants(decomposition) -> list[str]:
    """Symmetry, monic integral determinant, degree dominance, det agreement."""
    gram = decomposition.gram
    n = gram.dimension()
    if n == 0:
        return []
    failures = []
    grid = gram.exponents  # x**e as e, zero as None
    for u in range(n):
        for v in range(n):
            if grid[u][v] != grid[v][u]:
                failures.append(f"asymmetric at {u},{v}")
    symmetric = not failures
    sort_keys = [key.sort_key() for key in gram.keys]
    for u, key in enumerate(gram.keys):
        want = gram.diagonal_degree(key)
        if grid[u][u] != want:
            failures.append(f"bad diagonal at {u}")
        for v in range(n):
            if sort_keys[v] < sort_keys[u]:
                if grid[u][v] is not None and grid[u][v] >= want:
                    failures.append(f"degree dominance at {u},{v}")
    if decomposition.offblock_violations:
        failures.append("off-block entries")
    if not symmetric:
        return failures  # det_direct takes symmetric matrices only
    d_raw = det_direct(gram.entries)
    d_red = det_direct(decomposition.reduced)
    d_blk = det_blocks(decomposition).poly
    if not (d_raw == d_red == d_blk):
        failures.append("determinant mismatch")
    if not d_raw.is_monic() or not d_raw.is_integral():
        failures.append("det not monic integral")
    if d_raw.degree() != sum(gram.diagonal_degree(key) for key in gram.keys):
        failures.append("det degree")
    return failures


def check_block_closed_forms(decomposition) -> list[str]:
    """Reduced blocks match the closed forms; only known informative diffs.
    The first hard diff stands for the profile."""
    return [diff.describe() for diff in decomposition.hard_diffs()[:1]]


def check_poset_duality(decomposition) -> list[str]:
    """Every Gram entry equals its product; coarsening equals the loop-count
    criterion; joins are unique.

    One product per unordered pair: both diagrams are mirror-symmetric, so
    v.u is the mirror image of u.v, with the same loops and through count,
    and one entry serves (u, v) and (v, u). On every ordered pair the Gram
    entry must equal that entry (x**loops when the product keeps every
    through block, else zero) and the poset read off the Gram matrix must
    equal `diagram_coarser_or_equal`, so the joins read off the grid are
    joins of the oracle's relation. On the pairs with deg u < deg v,
    coarsening must also equal the loop-count criterion.
    """
    gram = decomposition.gram
    diagrams = gram.diagrams
    target = gram.through_count()
    leq = coarsening_poset(gram).leq
    n = len(diagrams)
    degrees = [gram.diagonal_degree(key) for key in gram.keys]
    types = [block_types(diagram) for diagram in diagrams]
    failures = []
    for u in range(n):
        for v in range(u, n):
            prod, loops = diagrams[u].multiply(diagrams[v])
            entry = loops if prod.propagating_number() == target else None
            for a, b in dict.fromkeys([(u, v), (v, u)]):  # (u, u) once
                coarser = diagram_coarser_or_equal(diagrams[a], diagrams[b], types[a], types[b])
                if degrees[a] < degrees[b] and coarser != (entry == degrees[a]):
                    failures.append(f"pair {a},{b}")
                if leq[a][b] != coarser or gram.exponents[a][b] != entry:
                    failures.append(f"pair {a},{b}: row-partition view differs from the oracle")
    if gram.family.ambient != gram.algebra:
        return failures  # a join can lie outside a restricted basis
    for u in range(n):
        for v in range(u, n):
            try:
                w = minimal_common_coarsening(gram, u, v)
            except RuntimeError as exc:
                failures.append(str(exc))
                continue
            if u == v and w != u:
                failures.append(f"join({u},{u}) != {u}")
    return failures


def check_oracle_equivalence(decomposition) -> list[str]:
    """Closed-formula coarser counts equal the brute-force enumeration.

    One walk per basis diagram gives its counts at every target; they must
    equal the formula on the target grid and at every profile the walk
    reaches. Both sides are in doubled coordinates: a plain diagram's count
    at q is the doubled count at (0, q).
    """
    gram = decomposition.gram
    failures = []
    for key, diagram in zip(gram.keys, gram.diagrams):
        s1, s2, r1, r2 = gram.doubled(key)
        counts = coarser_profile_counts(diagram)
        if gram.family.plain:
            counts = {(0, q): n for q, n in counts.items()}
        grid = product(range(r1 + 1), range(r1 + r2 + 2))
        for p1, p2 in sorted(counts.keys() | set(grid)):
            got = counts.get((p1, p2), 0)
            want = gen_stirling_z2(s1, s2, r1, r2, p1, p2)
            if got != want:
                failures.append(f"r=({r1},{r2}) p=({p1},{p2}): oracle {got} vs formula {want}")
    return failures


def check_zero_profile_blocks(decomposition) -> list[str]:
    """At the empty through profile the block diagonals are the bare products."""
    gram = decomposition.gram
    failures = []
    for label, members in decomposition.cells:
        block = decomposition.block(label)
        for a, idx in enumerate(members):
            want = gram.phi(gram.keys[idx])
            if label[0] == "rho":
                want = want + phi_z2(0, 0, 0, gram.k)
            if block[a][a] != want:
                failures.append(f"{label} diagonal {a}")
    return failures


# -- global checks -----------------------------------------------------------------


def check_stirling_recurrences() -> list[str]:
    """Three-term recurrences over the documented grid.

    The plain partition recurrence is the r2-recurrence at s1 = r1 = p1 = 0,
    inside this grid. Every identity at one (s1, s2) reads gen_stirling_z2
    at that pair, so its values are memoized per pair, and dropped with it.
    """
    failures = []
    for s1 in range(4):
        for s2 in range(4):
            g = lru_cache(maxsize=None)(partial(gen_stirling_z2, s1, s2))
            for r1 in range(5):
                for r2 in range(6 - r1):
                    for p1 in range(r1 + 1):
                        for p2 in range(r1 + r2 - p1 + 2):
                            if r2 >= 1:
                                lhs = g(r1, r2, p1, p2)
                                rhs = g(r1, r2 - 1, p1, p2 - 1) + (s2 + p2) * g(r1, r2 - 1, p1, p2)
                                if lhs != rhs:
                                    failures.append(f"r2-recurrence {s1},{s2},{r1},{r2},{p1},{p2}")
                            if r1 >= 1 and p1 <= r1 - 1 and (r1 - 1) - p1 >= p2 - r2:
                                lhs = g(r1, r2, p1, p2)
                                rhs = (
                                    g(r1 - 1, r2, p1 - 1, p2)
                                    + g(r1 - 1, r2 + 1, p1, p2)
                                    + (2 * p1 + 2 * s1) * g(r1 - 1, r2, p1, p2)
                                )
                                if lhs != rhs:
                                    failures.append(f"r1-recurrence {s1},{s2},{r1},{r2},{p1},{p2}")
                            if r1 >= 1 and p1 <= r1 - 1 and p2 == 0:
                                lhs = g(r1, r2, p1, 0)
                                rhs = g(r1 - 1, r2, p1 - 1, 0) + (2 * p1 + 2 * s1 + s2) * g(
                                    r1 - 1, r2, p1, 0
                                )
                                if lhs != rhs:
                                    failures.append(f"p2=0 recurrence {s1},{s2},{r1},{r2},{p1}")
    return failures


def _shift_holds(t1: int, t2: int, s1: int, s2: int, r1: int, r2: int) -> bool:
    """The shift identity with a = r1 - t1, b = r2 - t2:

    phi_z2(s1+t1, s2+t2, a, b) = phi_z2(s1-t1, s2-t2, a, b)
        - sum over (m, m') != (0, 0) of c(t1, a, m) 2**m c(t2, b, m')
          phi_z2(s1+t1, s2+t2, a-m, b-m'),

    with c(t, r, m) = C(2t, m) C(r, m) m!. At t2 = 0 (t1 = 0) the m' (m)
    sum and the cross terms are empty, leaving the first- (second-) family
    identity.
    """

    def coeff(t, r, m):
        return binomial(2 * t, m) * binomial(r, m) * math.factorial(m)

    a, b = r1 - t1, r2 - t2
    rhs = phi_z2(s1 - t1, s2 - t2, a, b)
    for m in range(2 * t1 + 1):
        for mp in range(2 * t2 + 1):
            if m or mp:
                c = coeff(t1, a, m) * 2**m * coeff(t2, b, mp)
                rhs = rhs - phi_z2(s1 + t1, s2 + t2, a - m, b - mp).scalar_mul(c)
    return phi_z2(s1 + t1, s2 + t2, a, b) == rhs


def check_phi_identities() -> list[str]:
    """Shift identities between the named polynomial families.

    The two-parameter identity is asserted in its corrected form: every
    subtracted term carries the raised superscripts.
    """
    failures = []
    for t in range(3):
        for s1 in range(t, 5):
            for s2 in range(3):
                for r1 in range(5):
                    for r2 in range(4):
                        if not _shift_holds(t, 0, s1, s2, r1, r2):
                            failures.append(f"first-family shift {t},{s1},{s2},{r1},{r2}")
    for t in range(3):
        for s2 in range(t, 5):
            for s1 in range(3):
                for r2 in range(5):
                    for r1 in range(4):
                        if not _shift_holds(0, t, s1, s2, r1, r2):
                            failures.append(f"second-family shift {t},{s1},{s2},{r1},{r2}")
    for t1 in range(2):
        for t2 in range(2):
            for s1 in range(t1, 4):
                for s2 in range(t2, 4):
                    for r1 in range(4):
                        for r2 in range(4):
                            if not _shift_holds(t1, t2, s1, s2, r1, r2):
                                failures.append(f"combined shift {t1},{t2},{s1},{s2},{r1},{r2}")
    return failures


def check_monomial_expansion() -> list[str]:
    """x**(2r1+r2) expands as the B-weighted sum of the diagonal products.

    The grid holds the plain expansion x**r, at s1 = r1 = 0, for s <= 3 and
    r <= 4.
    """
    failures = []
    for s1 in range(3):
        for s2 in range(4):
            for r1 in range(4):
                for r2 in range(5):
                    acc = Poly.zero()
                    for p1 in range(r1 + 1):
                        for p2 in range(r1 + r2 - p1 + 1):
                            acc = acc + phi_z2(s1, s2, p1, p2).scalar_mul(
                                gen_stirling_z2(s1, s2, r1, r2, p1, p2)
                            )
                    if acc != Poly.monomial(2 * r1 + r2):
                        failures.append(f"expansion {s1},{s2},{r1},{r2}")
    return failures


def run_all_checks(k_max: int = 3, guard: int = DEFAULT_GUARD):
    """Full invariant suite; the plain partition family runs one size higher.

    Raises WindowError unless 1 <= k_max <= 3, the scale the suite is sized
    for, and ResourceGuardError when a Gram matrix would exceed `guard`
    rows. The build and reduction of each profile are charged to
    gram-invariants.
    """
    if not 1 <= k_max <= 3:
        raise WindowError(f"verify runs at k from 1 to 3, got {k_max}")

    every = lambda k, s1, s2: True
    # (name, check, the profiles it reads, or None for a global check,
    #  details cap, details when it passes), in output order
    table = (
        ("gram-invariants", check_gram_invariants, every, 5, "all Gram invariants hold"),
        ("block-closed-forms", check_block_closed_forms, every, 3, "all blocks match closed forms"),
        ("poset-duality", check_poset_duality, lambda k, s1, s2: k <= k_max, 5,
         "poset duality and join uniqueness hold"),
        ("stirling-oracle", check_oracle_equivalence, every, 5, "oracle equals formula everywhere"),
        ("stirling-recurrences", check_stirling_recurrences, None, 5, "all recurrences hold"),
        ("phi-identities", check_phi_identities, None, 5, "all shift identities hold"),
        ("monomial-expansion", check_monomial_expansion, None, 5, "monomial expansions hold"),
        ("zero-profile-blocks", check_zero_profile_blocks,
         lambda k, s1, s2: k <= k_max and s1 == s2 == 0, 5, "zero-profile diagonals match"),
    )
    failures = {name: [] for name, *_ in table}
    seconds = dict.fromkeys(failures, 0.0)
    for algebra, family in FAMILIES.items():
        for k in range(1, k_max + family.plain + 1):
            for s1, s2 in family.profiles(k):
                start = time.monotonic()
                decomposition = reduced_decomposition(algebra, k, s1, s2, guard)
                seconds["gram-invariants"] += time.monotonic() - start
                tag = f"{algebra} k={k} ({s1},{s2})"
                for name, check, applies, _, _ in table:
                    if applies and applies(k, s1, s2):
                        start = time.monotonic()
                        failures[name] += [f"{tag} {failure}" for failure in check(decomposition)]
                        seconds[name] += time.monotonic() - start
                # the next profile is reduced with this one released
                del decomposition
    for name, check, applies, _, _ in table:
        if applies is None:
            start = time.monotonic()
            failures[name] = check()
            seconds[name] = time.monotonic() - start
    return [
        CheckResult(name, not failures[name], "; ".join(failures[name][:cap]) or passed, seconds[name])
        for name, _, _, cap, passed in table
    ]
