"""Aggregated verification suite backing both `pytest` and the CLI.

Each check returns a CheckResult; the acceptance tests assert `ok` and the
CLI prints one line per check. Scale parameters mirror the documented
acceptance bounds (full exactness, zero tolerance).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import product

from .determinant import det_blocks, det_direct
from .families import FAMILIES
from .gram import (
    DEFAULT_GUARD,
    WindowError,
    build_gram,
    enumerate_diagrams,
)
from .polynomials import Poly, phi_z2
from .reduction import (
    coarsening_poset,
    diagram_coarser_or_equal,
    minimal_common_coarsening,
    reduced_decomposition,
)
from .stirling import binomial, coarser_profile_counts, gen_stirling_z2

__all__ = ["CheckResult", "run_all_checks"]


@dataclass
class CheckResult:
    name: str
    ok: bool
    details: str
    seconds: float


def _timed(fn):
    t0 = time.monotonic()
    ok, details = fn()
    return ok, details, time.monotonic() - t0


# -- individual checks -----------------------------------------------------------


def check_gram_invariants(k_max: int = 3, guard: int = DEFAULT_GUARD):
    """Symmetry, monic integral determinant, degree dominance, det agreement."""

    def run():
        failures = []
        for algebra, top in (("partition", k_max + 1), ("z2", k_max), ("signed", k_max)):
            for k in range(1, top + 1):
                for s1, s2 in FAMILIES[algebra].profiles(k):
                    # the guard goes in positionally, as reduced_decomposition
                    # passes it, so that both share one cache entry
                    gram = build_gram(algebra, k, s1, s2, guard)
                    n = gram.dimension()
                    if n == 0:
                        continue
                    grid = gram.exponents  # x**e as e, zero as None
                    for u in range(n):
                        for v in range(n):
                            if grid[u][v] != grid[v][u]:
                                failures.append(f"{algebra} k={k} ({s1},{s2}) asymmetric at {u},{v}")
                    sort_keys = [key.sort_key() for key in gram.keys]
                    for u, key in enumerate(gram.keys):
                        want = gram.diagonal_degree(key)
                        if grid[u][u] != want:
                            failures.append(f"{algebra} k={k} ({s1},{s2}) bad diagonal at {u}")
                        for v in range(n):
                            if sort_keys[v] < sort_keys[u]:
                                if grid[u][v] is not None and grid[u][v] >= want:
                                    failures.append(
                                        f"{algebra} k={k} ({s1},{s2}) degree dominance at {u},{v}"
                                    )
                    decomposition = reduced_decomposition(algebra, k, s1, s2, guard)
                    if decomposition.offblock_violations:
                        failures.append(f"{algebra} k={k} ({s1},{s2}) off-block entries")
                    d_raw = det_direct(gram.entries)
                    d_red = det_direct(decomposition.reduced)
                    d_blk = det_blocks(decomposition).poly
                    if not (d_raw == d_red == d_blk):
                        failures.append(f"{algebra} k={k} ({s1},{s2}) determinant mismatch")
                    if not d_raw.is_monic() or not d_raw.is_integral():
                        failures.append(f"{algebra} k={k} ({s1},{s2}) det not monic integral")
                    if d_raw.degree() != sum(gram.diagonal_degree(key) for key in gram.keys):
                        failures.append(f"{algebra} k={k} ({s1},{s2}) det degree")
        return not failures, "; ".join(failures[:5]) or "all Gram invariants hold"

    return CheckResult("gram-invariants", *_timed(run))


def check_block_closed_forms(k_max: int = 3, guard: int = DEFAULT_GUARD):
    """Reduced blocks match the closed forms; only known informative diffs."""

    def run():
        failures = []
        for algebra, top in (("partition", k_max + 1), ("z2", k_max), ("signed", k_max)):
            for k in range(1, top + 1):
                for s1, s2 in FAMILIES[algebra].profiles(k):
                    decomposition = reduced_decomposition(algebra, k, s1, s2, guard)
                    hard = decomposition.hard_diffs()
                    if hard:
                        failures.append(
                            f"{algebra} k={k} ({s1},{s2}): {hard[0].describe()}"
                        )
        return not failures, "; ".join(failures[:3]) or "all blocks match closed forms"

    return CheckResult("block-closed-forms", *_timed(run))


def check_poset_duality(k_max: int = 3, guard: int = DEFAULT_GUARD):
    """Coarsening equals the loop-count criterion; joins are unique.

    The poset read off the Gram matrix must equal `diagram_coarser_or_equal`
    on every pair, so the joins read from it are joins of the oracle's
    relation. On the pairs with deg u < deg v, coarsening must also equal
    the loop-count criterion, and the row-partition Gram entries their
    product-based oracle.
    """

    def run():
        failures = []
        for algebra, family in FAMILIES.items():
            for k in range(1, k_max + 1):
                for s1, s2 in family.profiles(k):
                    gram = build_gram(algebra, k, s1, s2, guard)
                    diagrams, keys = gram.diagrams, gram.keys
                    target = gram.through_count()
                    poset = coarsening_poset(gram)
                    n = len(diagrams)
                    degrees = [gram.diagonal_degree(key) for key in keys]
                    for u in range(n):
                        degu = degrees[u]
                        for v in range(n):
                            coarser = diagram_coarser_or_equal(diagrams[u], diagrams[v])
                            agrees = poset.leq[u][v] == coarser
                            if degu < degrees[v]:
                                prod, loops = diagrams[u].multiply(diagrams[v])
                                kept = prod.propagating_number() == target
                                if coarser != (loops == degu and kept):
                                    failures.append(f"{algebra} k={k} ({s1},{s2}) pair {u},{v}")
                                agrees = agrees and gram.exponents[u][v] == (loops if kept else None)
                            if not agrees:
                                failures.append(
                                    f"{algebra} k={k} ({s1},{s2}) pair {u},{v}: "
                                    "row-partition view differs from the oracle"
                                )
                    if family.ambient != algebra:
                        continue  # a join can lie outside the signed basis
                    loops_at = {}  # (w, x) -> loops of the product d_w . d_x
                    for u in range(n):
                        for v in range(u, n):
                            try:
                                w = minimal_common_coarsening(gram, u, v)
                            except RuntimeError as exc:
                                failures.append(f"{algebra} k={k} ({s1},{s2}): {exc}")
                                continue
                            if u == v and w != u:
                                failures.append(f"{algebra} k={k} ({s1},{s2}) join({u},{u}) != {u}")
                            if w is not None:
                                for x in (w, u, v):
                                    if (w, x) not in loops_at:
                                        loops_at[w, x] = diagrams[w].multiply(diagrams[x])[1]
                                if not (loops_at[w, w] == loops_at[w, u] == loops_at[w, v]):
                                    failures.append(
                                        f"{algebra} k={k} ({s1},{s2}) loop identity at join({u},{v})"
                                    )
        return not failures, "; ".join(failures[:5]) or "poset duality and join uniqueness hold"

    return CheckResult("poset-duality", *_timed(run))


def check_oracle_equivalence(k_max: int = 3, guard: int = DEFAULT_GUARD):
    """Closed-formula coarser counts equal the brute-force enumeration.

    One walk per basis diagram gives its counts at every target; they must
    equal the formula on the target grid and at every profile the walk
    reaches.
    """

    def run():
        failures = []
        for algebra in ("z2", "signed"):
            for k in range(1, k_max + 1):
                for s1, s2 in FAMILIES[algebra].profiles(k):
                    for key, diagram in enumerate_diagrams(algebra, k, s1, s2, guard):
                        counts = coarser_profile_counts(diagram)
                        grid = product(range(key.r1 + 1), range(key.r1 + key.r2 + 2))
                        for p1, p2 in sorted(counts.keys() | set(grid)):
                            got = counts[p1, p2]
                            want = gen_stirling_z2(s1, s2, key.r1, key.r2, p1, p2)
                            if got != want:
                                failures.append(
                                    f"{algebra} k={k} ({s1},{s2}) r=({key.r1},{key.r2}) "
                                    f"p=({p1},{p2}): oracle {got} vs formula {want}"
                                )
        for k in range(1, k_max + 2):
            for s in range(k + 1):
                for key, diagram in enumerate_diagrams("partition", k, s, 0, guard):
                    counts = coarser_profile_counts(diagram)
                    for p in sorted(counts.keys() | set(range(key.r1 + 1))):
                        got = counts[p]
                        want = gen_stirling_z2(0, s, 0, key.r1, 0, p)  # flip-fixed slice
                        if got != want:
                            failures.append(f"partition k={k} s={s} r={key.r1} p={p}")
        return not failures, "; ".join(failures[:5]) or "oracle equals formula everywhere"

    return CheckResult("stirling-oracle", *_timed(run))


def check_stirling_recurrences():
    """Three-term recurrences over the documented grid.

    The plain partition recurrence is the r2-recurrence at s1 = r1 = p1 = 0,
    inside this grid.
    """

    def run():
        failures = []
        for s1 in range(4):
            for s2 in range(4):
                for r1 in range(5):
                    for r2 in range(6 - r1):
                        for p1 in range(r1 + 1):
                            for p2 in range(r1 + r2 - p1 + 2):
                                if r2 >= 1:
                                    lhs = gen_stirling_z2(s1, s2, r1, r2, p1, p2)
                                    rhs = gen_stirling_z2(s1, s2, r1, r2 - 1, p1, p2 - 1) + (
                                        s2 + p2
                                    ) * gen_stirling_z2(s1, s2, r1, r2 - 1, p1, p2)
                                    if lhs != rhs:
                                        failures.append(f"r2-recurrence {s1},{s2},{r1},{r2},{p1},{p2}")
                                if r1 >= 1 and p1 <= r1 - 1 and (r1 - 1) - p1 >= p2 - r2:
                                    lhs = gen_stirling_z2(s1, s2, r1, r2, p1, p2)
                                    rhs = (
                                        gen_stirling_z2(s1, s2, r1 - 1, r2, p1 - 1, p2)
                                        + gen_stirling_z2(s1, s2, r1 - 1, r2 + 1, p1, p2)
                                        + (2 * p1 + 2 * s1) * gen_stirling_z2(s1, s2, r1 - 1, r2, p1, p2)
                                    )
                                    if lhs != rhs:
                                        failures.append(f"r1-recurrence {s1},{s2},{r1},{r2},{p1},{p2}")
                                if r1 >= 1 and p1 <= r1 - 1 and p2 == 0:
                                    lhs = gen_stirling_z2(s1, s2, r1, r2, p1, 0)
                                    rhs = gen_stirling_z2(s1, s2, r1 - 1, r2, p1 - 1, 0) + (
                                        2 * p1 + 2 * s1 + s2
                                    ) * gen_stirling_z2(s1, s2, r1 - 1, r2, p1, 0)
                                    if lhs != rhs:
                                        failures.append(f"p2=0 recurrence {s1},{s2},{r1},{r2},{p1}")
        return not failures, "; ".join(failures[:5]) or "all recurrences hold"

    return CheckResult("stirling-recurrences", *_timed(run))


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


def check_phi_identities():
    """Shift identities between the named polynomial families.

    The two-parameter identity is asserted in its corrected form: every
    subtracted term carries the raised superscripts.
    """

    def run():
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
                                    failures.append(
                                        f"combined shift {t1},{t2},{s1},{s2},{r1},{r2}"
                                    )
        return not failures, "; ".join(failures[:5]) or "all shift identities hold"

    return CheckResult("phi-identities", *_timed(run))


def check_monomial_expansion():
    """x**(2r1+r2) expands as the B-weighted sum of the diagonal products.

    The grid holds the plain expansion x**r, at s1 = r1 = 0, for s <= 3 and
    r <= 4.
    """

    def run():
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
                            failures.append(f"z2 expansion {s1},{s2},{r1},{r2}")
        return not failures, "; ".join(failures[:5]) or "monomial expansions hold"

    return CheckResult("monomial-expansion", *_timed(run))


def check_zero_profile_blocks(k_max: int = 3, guard: int = DEFAULT_GUARD):
    """At the empty through profile the block diagonals are the bare products."""

    def run():
        failures = []
        for k in range(1, k_max + 1):
            for algebra in ("z2", "signed", "partition"):
                decomposition = reduced_decomposition(algebra, k, 0, 0, guard)
                gram = decomposition.gram
                for label, members in decomposition.cells:
                    block = decomposition.block(label)
                    for a, idx in enumerate(members):
                        want = gram.phi(gram.keys[idx])
                        if label[0] == "rho":
                            want = want + phi_z2(0, 0, 0, k)
                        if block[a][a] != want:
                            failures.append(f"{algebra} k={k} {label} diagonal {a}")
        return not failures, "; ".join(failures[:5]) or "zero-profile diagonals match"

    return CheckResult("zero-profile-blocks", *_timed(run))


def run_all_checks(k_max: int = 3, guard: int = DEFAULT_GUARD):
    """Full invariant suite; the plain partition family runs one size higher.

    Raises WindowError unless 1 <= k_max <= 3, the scale the suite is sized
    for, and ResourceGuardError when a Gram matrix would exceed `guard`
    rows.
    """
    if not 1 <= k_max <= 3:
        raise WindowError(f"verify runs at k from 1 to 3, got {k_max}")
    checks = [
        check_gram_invariants(k_max, guard),
        check_block_closed_forms(k_max, guard),
        check_poset_duality(k_max, guard),
        check_oracle_equivalence(k_max, guard),
        check_stirling_recurrences(),
        check_phi_identities(),
        check_monomial_expansion(),
        check_zero_profile_blocks(k_max, guard),
    ]
    return checks
