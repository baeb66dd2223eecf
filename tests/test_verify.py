"""The aggregated suite and its CLI frontend."""

import hashlib
import re

import pytest

from diagram_gram import cli, verify
from diagram_gram.cli import main
from diagram_gram.diagrams import Diagram
from diagram_gram.families import FAMILIES
from diagram_gram.gram import DEFAULT_GUARD, GramMatrix, build_gram, enumerate_diagrams
from diagram_gram.polynomials import Poly
from diagram_gram.reduction import BlockDecomposition, CoarseningPoset, reduced_decomposition


# sha256 of `verify` stdout, seconds masked and scale line removed, recorded
# before the coarsening oracle read block masks; it is the same at `--k 1`,
# 2 and 3, as only the scale line names k
VERIFY_DIGEST = "676ff47b01a764bb91ac4668e8559f03ff940f051edb2b6efb6b3d45608a2690"

SCALE_PREFIX = "  scale: "


def masked_digest(out):
    """sha256 of `verify` stdout without its scale line and with each
    line's seconds masked as `sed -E 's/ +[0-9]+\\.[0-9]+s / Xs /'` masks
    them."""
    masked = "".join(
        re.sub(r" +[0-9]+\.[0-9]+s ", " Xs ", line, count=1)
        for line in out.splitlines(keepends=True)
        if not line.startswith(SCALE_PREFIX)
    )
    return hashlib.sha256(masked.encode()).hexdigest()


def test_run_all_checks_pass(checks_k3):
    names = [c.name for c in checks_k3]
    assert names == [
        "gram-invariants",
        "block-closed-forms",
        "poset-duality",
        "stirling-oracle",
        "stirling-recurrences",
        "phi-identities",
        "monomial-expansion",
        "zero-profile-blocks",
    ]
    for check in checks_k3:
        assert check.ok, f"{check.name}: {check.details}"


def test_verify_cli_exit_zero(checks_k3, monkeypatch, capsys):
    calls = []

    def shared_run(k, guard, visit):
        calls.append((k, guard))
        return checks_k3

    # the CLI's own work, the two golden comparisons, still runs: no
    # profile is visited, so the CLI builds signed k=3 (1,0) itself
    monkeypatch.setattr(cli, "run_all_checks", shared_run)
    code = main(["verify", "--k", "3"])
    out = capsys.readouterr().out
    assert calls == [(3, DEFAULT_GUARD)]
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10  # eight checks plus the two golden comparisons
    assert all(line.startswith("PASS") for line in lines)
    assert "suspected typo in the published table" in out
    assert out.splitlines()[0] == (
        f"{SCALE_PREFIX}partition k<=4, z2 k<=3, signed k<=3; guard {DEFAULT_GUARD}"
    )
    assert masked_digest(out) == VERIFY_DIGEST


def test_poset_duality_catches_a_wrong_relation_at_deg_u_ge_deg_v(monkeypatch):
    """A flipped `leq` entry at a pair with deg u >= deg v, where the loop
    criterion is not evaluated, is caught by the comparison with the oracle."""
    original = verify.coarsening_poset
    decomposition = reduced_decomposition("z2", 2, 0, 0)
    gram = decomposition.gram
    degrees = [gram.diagonal_degree(key) for key in gram.keys]
    u, v = next(
        (u, v)
        for u in range(len(degrees))
        for v in range(len(degrees))
        if u != v and degrees[u] > degrees[v]
    )

    def planted(g):
        poset = original(g)
        leq = [list(row) for row in poset.leq]
        leq[u][v] = not leq[u][v]
        return CoarseningPoset(poset.keys, tuple(map(tuple, leq)))

    assert verify.check_poset_duality(decomposition) == []
    monkeypatch.setattr(verify, "coarsening_poset", planted)
    failures = verify.check_poset_duality(decomposition)
    assert f"pair {u},{v}: row-partition view differs from the oracle" in failures


@pytest.mark.parametrize(
    "profile",
    [("z2", 2, 1, 0), ("partition", 3, 1, 0), ("signed", 3, 1, 0)],
    ids=lambda p: "{} k={} ({},{})".format(*p),
)
def test_poset_duality_catches_a_wrong_gram_entry_at_an_equal_degree_pair(profile):
    """A zero entry G[u][v] = G[v][u] at deg u == deg v, planted as
    x**(deg u - 1): symmetric and below the degree, so the poset read off
    the matrix is unchanged, but the entry differs from the product u.v."""
    decomposition = reduced_decomposition(*profile)
    gram = decomposition.gram
    grid = gram.exponents
    degrees = [gram.diagonal_degree(key) for key in gram.keys]
    u, v = next(
        (u, v)
        for u in range(len(degrees))
        for v in range(len(degrees))
        if u != v and degrees[u] == degrees[v] and grid[u][v] is None
    )
    rows = [list(row) for row in grid]
    rows[u][v] = rows[v][u] = grid[u][u] - 1
    planted = GramMatrix(
        gram.algebra, gram.k, gram.s1, gram.s2, gram.keys, gram.diagrams,
        tuple(map(tuple, rows)), gram.symmetry,
    )
    d = decomposition
    failures = verify.check_poset_duality(BlockDecomposition(
        planted, d.transform, d.reduced, d.cells, d.offblock_violations
    ))
    for a, b in ((u, v), (v, u)):
        assert f"pair {a},{b}: row-partition view differs from the oracle" in failures


def test_gram_invariants_report_an_asymmetric_grid_without_a_determinant():
    """An entry planted at (0, 1) alone is reported at both positions, and
    no determinant is taken: `det_direct` rejects an asymmetric matrix."""
    decomposition = reduced_decomposition("z2", 2, 0, 0)
    gram = decomposition.gram
    rows = [list(row) for row in gram.exponents]
    assert rows[0][1] == rows[1][0] == 1
    rows[0][1] = 6
    planted = GramMatrix(
        gram.algebra, gram.k, gram.s1, gram.s2, gram.keys, gram.diagrams,
        tuple(map(tuple, rows)), gram.symmetry,
    )
    d = decomposition
    failures = verify.check_gram_invariants(BlockDecomposition(
        planted, d.transform, d.reduced, d.cells, d.offblock_violations
    ))
    assert failures == ["asymmetric at 0,1", "asymmetric at 1,0"]


def test_poset_duality_makes_one_product_per_unordered_pair(monkeypatch):
    """Both diagram classes multiply through `Diagram.multiply`, so counting
    it counts the products of every family."""
    calls = 0
    original = Diagram.multiply

    def counted(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(Diagram, "multiply", counted)
    for algebra, family in FAMILIES.items():
        for k in (1, 2):
            for s1, s2 in family.profiles(k):
                decomposition = reduced_decomposition(algebra, k, s1, s2)
                n = decomposition.gram.dimension()
                calls = 0
                assert verify.check_poset_duality(decomposition) == []
                assert calls == n * (n + 1) // 2, (algebra, k, s1, s2)


def test_stirling_oracle_catches_a_profile_outside_the_window(monkeypatch):
    """A walk that reports a profile off the target grid, where the formula
    is zero, fails the check; a plain diagram's q is read as (0, q)."""
    original = verify.coarser_profile_counts
    for profile, planted_key, planted_at in (
        (("z2", 1, 0, 0), (99, 0), "p=(99,0)"),
        (("partition", 2, 1, 0), 99, "p=(0,99)"),
    ):

        def planted(diagram):
            counts = original(diagram)
            counts[planted_key] += 1
            return counts

        decomposition = reduced_decomposition(*profile)
        monkeypatch.setattr(verify, "coarser_profile_counts", original)
        assert verify.check_oracle_equivalence(decomposition) == []
        monkeypatch.setattr(verify, "coarser_profile_counts", planted)
        failures = verify.check_oracle_equivalence(decomposition)
        assert len(failures) == decomposition.gram.dimension()
        assert f"{planted_at}: oracle 1 vs formula 0" in failures[0]


def test_a_planted_phi_value_fails_the_identities_that_read_it(monkeypatch):
    """phi_z2(1, 1, 1, 1) off by one: the shift identities and the
    monomial expansions that read it name themselves."""
    original = verify.phi_z2

    def planted(*args):
        poly = original(*args)
        return poly + Poly.one() if args == (1, 1, 1, 1) else poly

    assert verify.check_phi_identities() == verify.check_monomial_expansion() == []
    monkeypatch.setattr(verify, "phi_z2", planted)
    failures = verify.check_phi_identities()
    # read as phi_z2(s1 - t1, s2 - t2, a, b) on the right-hand side
    for name in (
        "first-family shift 1,2,1,2,1",
        "second-family shift 1,1,2,1,2",
        "combined shift 1,1,2,2,2,2",
    ):
        assert name in failures
    # read at (p1, p2) = (r1, r2) = (1, 1), with coefficient 1
    assert "expansion 1,1,1,1" in verify.check_monomial_expansion()


def test_a_planted_stirling_value_fails_the_recurrences_and_the_oracle(monkeypatch):
    """gen_stirling_z2(1, 0, 0, 1, 0, 1), the count at its own profile,
    off by one: the recurrence with it on the left fails, and so does the
    oracle check of z2 k=2 (1,0), whose diagram with r = (0, 1) reads it."""
    original = verify.gen_stirling_z2
    planted_at = (1, 0, 0, 1, 0, 1)

    def planted(*args):
        count = original(*args)
        return count + 1 if args == planted_at else count

    decomposition = reduced_decomposition("z2", 2, 1, 0)
    assert verify.check_stirling_recurrences() == []
    assert verify.check_oracle_equivalence(decomposition) == []
    monkeypatch.setattr(verify, "gen_stirling_z2", planted)
    assert "r2-recurrence 1,0,0,1,0,1" in verify.check_stirling_recurrences()
    failures = verify.check_oracle_equivalence(decomposition)
    assert failures and all(f == "r=(0,1) p=(0,1): oracle 1 vs formula 2" for f in failures)


# one check per line: the planted failure must show only on its own line
PLANTED = [
    ("gram-invariants", "check_gram_invariants", ("partition", 2, 1, 0)),
    ("block-closed-forms", "check_block_closed_forms", ("signed", 1, 0, 0)),
    ("poset-duality", "check_poset_duality", ("z2", 1, 1, 0)),
    ("stirling-oracle", "check_oracle_equivalence", ("partition", 2, 2, 0)),
    ("zero-profile-blocks", "check_zero_profile_blocks", ("z2", 1, 0, 0)),
]


@pytest.mark.parametrize("name, function, profile", PLANTED, ids=[p[0] for p in PLANTED])
def test_a_planted_failure_fails_its_own_check_under_its_profile_tag(
    monkeypatch, name, function, profile
):
    original = getattr(verify, function)

    def planted(decomposition):
        gram = decomposition.gram
        failures = original(decomposition)
        if (gram.algebra, gram.k, gram.s1, gram.s2) == profile:
            failures = failures + ["planted failure"]
        return failures

    monkeypatch.setattr(verify, function, planted)
    checks = verify.run_all_checks(1)
    assert [c.name for c in checks if not c.ok] == [name]
    algebra, k, s1, s2 = profile
    (failed,) = (c for c in checks if not c.ok)
    assert failed.details == f"{algebra} k={k} ({s1},{s2}) planted failure"


def test_each_profile_is_built_and_reduced_once():
    """One visit per profile: each stage is called once for each."""
    caches = (enumerate_diagrams, build_gram, reduced_decomposition)
    for cache in caches:
        cache.cache_clear()
    verify.run_all_checks(2)
    visited = sum(
        len(family.profiles(k))
        for family in FAMILIES.values()
        for k in range(1, 2 + family.plain + 1)
    )
    assert visited == 22
    assert [cache.cache_info().misses for cache in caches] == [visited] * 3


@pytest.mark.parametrize("k, builds", [("1", 10), ("2", 23), ("3", 43)])
def test_a_verify_call_builds_each_profile_once(capsys, k, builds):
    """The profile loop builds each profile once; `--k 1` and `--k 2` then
    build signed k=3 (1,0) for the published-table lines, while `--k 3`
    hands those lines the loop's own decomposition of it."""
    caches = (enumerate_diagrams, build_gram, reduced_decomposition)
    for cache in caches:
        cache.cache_clear()
    assert main(["verify", "--k", k]) == 0
    capsys.readouterr()
    assert [cache.cache_info().misses for cache in caches] == [builds] * 3


def test_verify_output_is_pinned(capsys):
    """`verify --k 1` and `--k 2` stdout, seconds masked: the scale line,
    every check line, its details and the four documented slips of the
    published table. `test_verify_cli_exit_zero` pins `--k 3`."""
    scales = {
        "1": "partition k<=2, z2 k<=1, signed k<=1; guard 34",
        "2": f"partition k<=3, z2 k<=2, signed k<=2; guard {DEFAULT_GUARD}",
    }
    for k, scale in scales.items():
        guard = ["--guard", "34"] if k == "1" else []
        assert main(["verify", "--k", k, *guard]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == SCALE_PREFIX + scale, k
        assert sum(line.startswith(SCALE_PREFIX) for line in out.splitlines()) == 1
        assert masked_digest(out) == VERIFY_DIGEST, k


def test_published_table_lines_need_signed_k3_at_any_k(capsys):
    """The two published-table lines build signed k=3 (1,0), n=34, whatever
    `--k` is: a guard below 34 exits 3 and names that profile."""
    assert main(["verify", "--k", "1", "--guard", "33"]) == 3
    err = capsys.readouterr().err
    assert "exceeds guard 33 for signed k=3 profile (1, 0)" in err
    assert main(["verify", "--k", "1", "--guard", "34"]) == 0
