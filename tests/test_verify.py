"""The aggregated suite and its CLI frontend."""

from diagram_gram import cli
from diagram_gram.cli import main
from diagram_gram.gram import DEFAULT_GUARD


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
