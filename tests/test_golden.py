"""Golden-fixture integrity and the published-example comparison machinery."""

from diagram_gram.golden import (
    published_gram_report,
    published_reduced_report,
    load_fixture,
    match_published_gram,
)
from diagram_gram.gram import build_gram
from diagram_gram.reduction import reduced_decomposition


def test_fixture_files_load():
    gram_fx = load_fixture("published_gram.json")
    assert len(gram_fx["exponents"]) == 34
    assert [size for _, _, size in gram_fx["cells"]] == [4, 6, 3, 6, 6, 6, 3]
    reduced_fx = load_fixture("published_reduced.json")
    assert len(reduced_fx["rho_block"]) == 9
    table_fx = load_fixture("stirling_table.json")
    assert len(table_fx["cells"]) == 64


def test_fixture_records_printed_contradictions():
    fx = load_fixture("published_gram.json")
    positions = {(i, j) for i, j, _, _ in fx["asymmetric_positions"]}
    assert positions == {(13, 27), (13, 29), (14, 27), (14, 29)}
    grid = fx["exponents"]
    for i, j in positions:
        assert grid[i][j] != grid[j][i]
    # everywhere else the printed table is symmetric
    for i in range(34):
        for j in range(34):
            if (i, j) not in positions and (j, i) not in positions:
                assert grid[i][j] == grid[j][i]


def test_gram_matches_published_table_exactly_outside_contradictions():
    report = published_gram_report(build_gram("signed", 3, 1, 0))
    assert report.ok
    assert report.hard_mismatches == []
    assert len(report.slips) == 4
    for _i, _j, here, there, got in report.slips:
        assert {here, there} == {None, 1}
        assert got is None  # arbitration: the computed matrix has no edge there


def test_permutation_respects_cells():
    gram = build_gram("signed", 3, 1, 0)
    report = published_gram_report(gram)
    bounds = [0, 4, 10, 13, 19, 25, 31, 34]
    for u, slot in enumerate(report.permutation):
        cell_u = max(c for c in range(7) if bounds[c] <= u)
        cell_s = max(c for c in range(7) if bounds[c] <= slot)
        assert cell_u == cell_s


def test_reduced_blocks_match_published():
    dec = reduced_decomposition("signed", 3, 1, 0)
    out = published_reduced_report(dec, published_gram_report(dec.gram))
    assert out["ok"]
    assert len(out["scalar_blocks"]) == 3
    assert out["rho"] == {"size_ok": True, "diffs": []}


def test_matcher_reports_planted_defect():
    """A corrupted matrix is flagged with a hard mismatch, not absorbed."""
    gram = build_gram("signed", 3, 1, 0)
    exponents = [list(row) for row in gram.exponents]
    exponents[0][5] = 2  # plant an off-cell defect, x**2
    exponents[5][0] = 2
    corrupted = type(gram)(
        gram.algebra, gram.k, gram.s1, gram.s2, gram.keys, gram.diagrams,
        tuple(tuple(row) for row in exponents),
    )
    report = match_published_gram(corrupted)
    assert not report.ok


def _planted(gram, cells):
    exponents = [list(row) for row in gram.exponents]
    for (i, j), e in cells.items():
        exponents[i][j] = e
    return type(gram)(
        gram.algebra, gram.k, gram.s1, gram.s2, gram.keys, gram.diagrams,
        tuple(tuple(row) for row in exponents),
    )


def test_matcher_with_planted_mismatches_keeps_its_alignment():
    """Planted defects are reported under the recorded alignment. The
    expected lists are those a minimal-mismatch search over every
    within-cell alignment returns for the same inputs."""
    gram = build_gram("signed", 3, 1, 0)
    aligned = published_gram_report(gram).permutation
    assert aligned == (
        0, 1, 2, 3, 6, 7, 4, 5, 8, 9, 12, 10, 11, 15, 16, 13, 14, 17, 18,
        23, 24, 19, 20, 21, 22, 29, 26, 30, 25, 28, 27, 33, 31, 32,
    )
    cases = [
        ({(3, 3): gram.exponents[3][3] + 1}, [(3, 3, 1, 0)]),  # a diagonal entry
        ({(0, 5): 2, (5, 0): 2}, [(0, 7, 2, None), (7, 0, 2, None)]),  # a symmetric pair
        ({(0, 5): 2}, [(0, 7, 2, None)]),  # one side of a pair
        ({(20, 21): 5}, [(24, 19, 5, 0)]),  # one side, inside a 6-cell
    ]
    for cells, hard in cases:
        report = match_published_gram(_planted(gram, cells))
        assert report.permutation == aligned
        assert report.hard_mismatches == hard
        assert len(report.slips) == 4
