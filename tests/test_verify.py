"""The aggregated suite and its CLI frontend."""

import dataclasses

from diagram_gram import cli, verify
from diagram_gram.cli import main
from diagram_gram.gram import DEFAULT_GUARD, build_gram
from diagram_gram.z2diagrams import Z2Diagram


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

    def shared_run(k, guard):
        calls.append((k, guard))
        return checks_k3

    # the CLI's own work, the two golden comparisons, still runs
    monkeypatch.setattr(cli, "run_all_checks", shared_run)
    code = main(["verify", "--k", "3"])
    out = capsys.readouterr().out
    assert calls == [(3, DEFAULT_GUARD)]
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10  # eight checks plus the two golden comparisons
    assert all(line.startswith("PASS") for line in lines)
    assert "suspected typo in the published table" in out


def test_poset_duality_catches_a_wrong_relation_at_deg_u_ge_deg_v(monkeypatch):
    """A flipped `leq` entry at a pair with deg u >= deg v, where the loop
    criterion is not evaluated, is caught by the comparison with the oracle."""
    original = verify.coarsening_poset
    gram = build_gram("z2", 2, 0, 0)
    degrees = [gram.diagonal_degree(key) for key in gram.keys]
    u, v = next(
        (u, v)
        for u in range(len(degrees))
        for v in range(len(degrees))
        if u != v and degrees[u] > degrees[v]
    )

    def planted(g):
        poset = original(g)
        if (g.algebra, g.k, g.s1, g.s2) != ("z2", 2, 0, 0):
            return poset
        leq = [list(row) for row in poset.leq]
        leq[u][v] = not leq[u][v]
        return dataclasses.replace(poset, leq=tuple(map(tuple, leq)))

    assert verify.check_poset_duality(2).ok
    monkeypatch.setattr(verify, "coarsening_poset", planted)
    check = verify.check_poset_duality(2)
    assert not check.ok
    assert f"z2 k=2 (0,0) pair {u},{v}: row-partition view differs" in check.details


def test_stirling_oracle_catches_a_profile_outside_the_window(monkeypatch):
    """A walk that reports a profile off the target grid, where the formula
    is zero, fails the check."""
    original = verify.coarser_profile_counts

    def planted(diagram):
        counts = original(diagram)
        counts[(99, 0) if isinstance(diagram, Z2Diagram) else 99] += 1
        return counts

    assert verify.check_oracle_equivalence(1).ok
    monkeypatch.setattr(verify, "coarser_profile_counts", planted)
    check = verify.check_oracle_equivalence(1)
    assert not check.ok
    assert "p=(99,0): oracle 1 vs formula 0" in check.details
