"""Acceptance suite: every documented exit criterion at its stated bound.

All arithmetic is exact; every comparison is equality, no tolerances. Each
test prints one PASS line on success (pytest shows it with -s, or on
failure); the CLI `verify` subcommand runs the same underlying checks.
"""

import time
from fractions import Fraction

from diagram_gram.golden import published_gram_report, published_reduced_report, load_fixture
from diagram_gram.gram import build_gram, enumerate_diagrams
from diagram_gram.reduction import reduced_decomposition
from diagram_gram.semisimplicity import verdict
from diagram_gram.stirling import count_coarser_bruteforce, gen_stirling_z2
from test_gram import standard_diagram

PUBLISHED_PARAMS = ("signed", 3, 1, 0)


def _check(checks, name):
    """The named result of the shared `run_all_checks(3)` run (conftest)."""
    return next(check for check in checks if check.name == name)


def _report(number: int, label: str, ok: bool = True, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:>2} {label}: {status}{'  ' + extra if extra else ''}")
    assert ok, f"criterion {number} ({label}) failed: {extra}"


def test_criterion_01_published_enumeration_structure():
    t0 = time.monotonic()
    basis = enumerate_diagrams(*PUBLISHED_PARAMS)
    elapsed = time.monotonic() - t0
    cells = []
    for key, _ in basis:
        cell = (key.alpha, key.r1, key.r2)
        if cells and cells[-1][0] == cell:
            cells[-1][1] += 1
        else:
            cells.append([cell, 1])
    sizes = [count for _, count in cells]
    ok = len(basis) == 34 and sizes == [4, 6, 3, 6, 6, 6, 3] and elapsed < 1.0
    _report(1, "published enumeration (34 diagrams, cells 4/6+3/6+6/6/3)", ok,
            f"{elapsed:.2f}s")


def test_criterion_02_published_gram_matrix():
    t0 = time.monotonic()
    gram = build_gram(*PUBLISHED_PARAMS)
    report = published_gram_report(gram)
    elapsed = time.monotonic() - t0
    for line in report.describe():
        print("   ", line)
    # no mismatch at a self-consistent printed position; positions where the
    # published table contradicts its own symmetry can never match any
    # symmetric matrix and are documented separately
    ok = report.ok and len(report.slips) == 4 and elapsed < 5.0
    _report(2, "published 34x34 Gram matrix (exact up to in-cell order; "
               "4 printed self-contradictions documented)", ok, f"{elapsed:.2f}s")


def test_criterion_03_published_reduction():
    t0 = time.monotonic()
    decomposition = reduced_decomposition(*PUBLISHED_PARAMS)
    out = published_reduced_report(decomposition, published_gram_report(decomposition.gram))
    elapsed = time.monotonic() - t0
    for diff in out["rho"]["diffs"]:
        print("    rho diff:", diff)
    ok = out["ok"] and not decomposition.offblock_violations and elapsed < 10.0
    _report(3, "published reduction (scalar blocks + 9x9 tail block entrywise)", ok,
            f"{elapsed:.2f}s")


def test_criterion_04_stirling_table_and_recurrences(checks_k3):
    t0 = time.monotonic()
    fixture = load_fixture("stirling_table.json")
    mismatched = []
    for key, cell in fixture["cells"].items():
        rpart, ppart = key.split("|")
        r1, r2 = map(int, rpart.split(","))
        p1, p2 = map(int, ppart.split(","))
        printed = {tuple(map(int, mono.split(","))): c for mono, c in cell.items()}
        for s1 in range(5):
            for s2 in range(5):
                want = sum(c * s1**a * s2**b for (a, b), c in printed.items())
                if want != gen_stirling_z2(s1, s2, r1, r2, p1, p2):
                    mismatched.append(((r1, r2), (p1, p2)))
                    break
            else:
                continue
            break
    # mismatching cells are arbitrated by the brute-force oracle and reported
    arbitration_ok = True
    for (r1, r2), (p1, p2) in mismatched:
        for s1, s2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
            k = s1 + s2 + r1 + r2
            shape = ((1,) * s1, (1,) * s2, (1,) * r1, (1,) * r2)
            d = standard_diagram(shape, k)
            oracle = count_coarser_bruteforce(d, p1, p2)
            formula = gen_stirling_z2(s1, s2, r1, r2, p1, p2)
            if oracle != formula:
                arbitration_ok = False
            print(
                f"    published-table cell ({r1},{r2})x({p1},{p2}) disagrees with the "
                f"formula; oracle at ({s1},{s2}) counts {oracle}, formula {formula} "
                "(printed value is a suspected typo)"
            )
    recurrences = _check(checks_k3, "stirling-recurrences")
    elapsed = time.monotonic() - t0 + recurrences.seconds
    ok = (
        mismatched == [((1, 2), (1, 1))]
        and arbitration_ok
        and recurrences.ok
        and elapsed < 5.0
    )
    _report(4, "symbolic table (63/64 cells; one printed typo, oracle-arbitrated) "
               "and recurrences", ok, f"{elapsed:.2f}s")


def test_criterion_05_oracle_equivalence(checks_k3):
    result = _check(checks_k3, "stirling-oracle")
    ok = result.ok and result.seconds < 60.0
    _report(5, "formula == brute-force oracle on every basis diagram", ok,
            f"{result.seconds:.2f}s ({result.details})")


def test_criterion_06_structural_invariants(checks_k3):
    gram_res = _check(checks_k3, "gram-invariants")
    blocks_res = _check(checks_k3, "block-closed-forms")
    elapsed = gram_res.seconds + blocks_res.seconds
    ok = gram_res.ok and blocks_res.ok and elapsed < 120.0
    _report(6, "symmetry, monic integral determinants, degree dominance, "
               "det(G) == det(reduced) == block product, off-block zeros", ok,
            f"{elapsed:.2f}s")


def test_criterion_07_poset_duality(checks_k3):
    result = _check(checks_k3, "poset-duality")
    _report(7, "coarsening == loop-count criterion; unique minimal joins",
            result.ok, f"{result.seconds:.2f}s")


def test_criterion_08_polynomial_identities(checks_k3):
    result = _check(checks_k3, "phi-identities")
    _report(8, "shift identities between the diagonal product families",
            result.ok, f"{result.seconds:.2f}s")


def test_criterion_09_semisimplicity(memo_global_poly):
    t0 = time.monotonic()
    v = verdict("z2", 4, 2)
    headline = (not v.semisimple) and any(w[2] == "x^2-x-2" for w in v.witnesses)
    agree = True
    import random

    rng = random.Random(99)
    for algebra in ("partition", "z2", "signed"):
        for k in (1, 2, 3):
            result, _ = memo_global_poly(algebra, k)
            for _ in range(50):
                q = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
                if verdict(algebra, k, q).semisimple != (result.poly.eval_at(q) != 0):
                    agree = False
    symbolic = all(verdict(a, 2, None).semisimple for a in ("partition", "z2", "signed"))
    elapsed = time.monotonic() - t0
    _report(9, "verdicts: doubled family k=4 q=2 fails with witness x^2-x-2; "
               "factor scan == evaluation; symbolic semisimple",
            headline and agree and symbolic, f"{elapsed:.2f}s")


def test_criterion_10_zero_profile_blocks(checks_k3):
    result = _check(checks_k3, "zero-profile-blocks")
    _report(10, "empty-profile block diagonals equal the bare products",
            result.ok, f"{result.seconds:.2f}s")


def test_supplementary_monomial_expansion(checks_k3):
    result = _check(checks_k3, "monomial-expansion")
    print(f"[acceptance] supplement monomial expansion: {'PASS' if result.ok else 'FAIL'}")
    assert result.ok, result.details
