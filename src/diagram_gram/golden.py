"""Golden-file comparison against the published 34x34 example.

The published table is stored verbatim, including four positions where it
contradicts its own symmetry (the matrix it tabulates is provably
symmetric). No symmetric matrix can agree with the printed data at those
positions, so the comparison splits its findings:

* hard mismatches: disagreements at self-consistent printed positions;
  these would indicate a real defect and are bounded by the acceptance
  criteria;
* printed-contradiction slips: the self-inconsistent positions, documented
  with both printed values and the computed value, arbitrated toward the
  computed matrix.

Index alignment inside a shape cell is not pinned down by the publication,
so the match is up to a within-cell permutation, found by budgeted
backtracking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .gram import GramMatrix
from .polynomials import Poly

__all__ = [
    "load_fixture",
    "GoldenReport",
    "match_published_gram",
    "published_gram_report",
    "published_reduced_report",
]

FIXTURE_VERSION = "v1"


def load_fixture(name: str) -> dict:
    path = resources.files("diagram_gram") / "fixtures" / FIXTURE_VERSION / name
    return json.loads(path.read_text())


@dataclass
class GoldenReport:
    permutation: tuple[int, ...] | None  # ours index -> printed index
    hard_mismatches: list[tuple[int, int, object, object]]
    slips: list[tuple[int, int, object, object, object]]

    def describe(self) -> list[str]:
        def render(exp) -> str:
            if exp is None:
                return "0"
            return str(Poly.monomial(exp)) if isinstance(exp, int) else str(exp)

        lines = []
        for i, j, got, want in self.hard_mismatches:
            lines.append(
                f"hard mismatch at printed position ({i + 1},{j + 1}): "
                f"computed {render(got)}, printed {render(want)}"
            )
        for i, j, here, there, got in self.slips:
            lines.append(
                f"suspected typo in the published table at printed position ({i + 1},{j + 1}): the table prints "
                f"{render(here)} here but {render(there)} at the transposed position; "
                f"computed value {render(got)} (arbitrated toward the computed matrix)"
            )
        return lines


def _cells_in_order(gram: GramMatrix):
    """Basis indices per (alpha, r1, r2) cell; each cell is numbered from i = 1."""
    cells = []
    for idx, key in enumerate(gram.keys):
        if key.i == 1:
            cells.append([])
        cells[-1].append(idx)
    return [tuple(members) for members in cells]


def match_published_gram(gram: GramMatrix, fixture: dict | None = None) -> GoldenReport:
    """Best within-cell alignment of a computed Gram matrix to the fixture."""
    if fixture is None:
        fixture = load_fixture("published_gram.json")
    printed = [
        [None if e is None else int(e) for e in row] for row in fixture["exponents"]
    ]
    asym = {(i, j) for i, j, _, _ in fixture.get("asymmetric_positions", [])}
    asym |= {(j, i) for i, j in asym}
    ours = gram.exponents
    n = len(ours)
    our_cells = _cells_in_order(gram)
    printed_cells = []
    start = 0
    for _, (_r1, _r2), size in fixture["cells"]:
        printed_cells.append(tuple(range(start, start + size)))
        start += size
    if [len(c) for c in our_cells] != [len(c) for c in printed_cells]:
        return GoldenReport(None, [(-1, -1, [len(c) for c in our_cells], [len(c) for c in printed_cells])], [])

    order = [u for cell in our_cells for u in cell]
    slot_pool = []
    for oc, pc in zip(our_cells, printed_cells):
        for _ in oc:
            slot_pool.append(pc)

    assign: dict[int, int] = {}
    used: set[int] = set()

    def mismatch_cost(u: int, slot: int, limit: int) -> int:
        """Hard mismatches added by placing ours-u at printed-slot; counting
        stops once the count exceeds `limit`, as the placement is then
        rejected whatever the rest would add."""
        cost = 0
        if (slot, slot) not in asym and printed[slot][slot] != ours[u][u]:
            cost += 1
        for w, ws in assign.items():
            if cost > limit:
                break
            for a, b, x, y in ((slot, ws, u, w), (ws, slot, w, u)):
                if (a, b) in asym:
                    continue
                if printed[a][b] != ours[x][y]:
                    cost += 1
        return cost

    best: dict[str, object] = {"perm": None, "cost": None}

    def dfs(pos: int, cost: int, budget: int) -> bool:
        if cost > budget:
            return False
        if pos == n:
            best["perm"] = dict(assign)
            best["cost"] = cost
            return True
        u = order[pos]
        for slot in slot_pool[pos]:
            if slot in used:
                continue
            added = mismatch_cost(u, slot, budget - cost)
            if cost + added > budget:
                continue
            assign[u] = slot
            used.add(slot)
            if dfs(pos + 1, cost + added, budget):
                return True
            del assign[u]
            used.remove(slot)
        return False

    for budget in range(0, 8):
        if dfs(0, 0, budget):
            break
    if best["perm"] is None:
        return GoldenReport(None, [(-1, -1, "no alignment found", None)], [])
    perm = tuple(best["perm"][u] for u in range(n))
    inverse = {p: u for u, p in enumerate(perm)}
    hard = []
    slips = []
    seen_pairs = set()
    for i in range(n):
        for j in range(n):
            got = ours[inverse[i]][inverse[j]]
            want = printed[i][j]
            if (i, j) in asym:
                if (min(i, j), max(i, j)) in seen_pairs:
                    continue
                seen_pairs.add((min(i, j), max(i, j)))
                slips.append((i, j, printed[i][j], printed[j][i], got))
            elif got != want:
                hard.append((i, j, got, want))
    return GoldenReport(perm, hard, slips)


def published_gram_report(gram: GramMatrix) -> GoldenReport:
    return match_published_gram(gram)


def published_reduced_report(decomposition, report: GoldenReport) -> dict:
    """Compare a reduced decomposition against the published reduced blocks.

    `report` is the raw-matrix match of `decomposition.gram`
    (`published_gram_report`); its permutation aligns the rho block.
    Returns a dict with per-block results; `diag_ok`, `structure_ok` and the
    rho-block entry diffs under that alignment.
    """
    fixture = load_fixture("published_reduced.json")
    out = {"scalar_blocks": [], "rho": None}
    if report.permutation is None:
        return out
    for spec_block in fixture["scalar_blocks"]:
        label = ("cell", spec_block["r1"], spec_block["r2"])
        block = decomposition.block(label)
        diag = Poly(spec_block["diagonal"])
        off = spec_block["offdiag"]
        ok_diag = all(block[i][i] == diag for i in range(len(block)))
        ok_size = len(block) == spec_block["size"]
        if off:
            coupling = Poly(off if isinstance(off[0], list) else off)
            ok_off = True
            for i in range(len(block)):
                partners = [
                    j for j in range(len(block)) if j != i and not block[i][j].is_zero()
                ]
                if len(partners) != 1 or block[i][partners[0]] != coupling:
                    ok_off = False
        else:
            ok_off = all(
                block[i][j].is_zero()
                for i in range(len(block))
                for j in range(len(block))
                if i != j
            )
        out["scalar_blocks"].append(
            {"label": label, "size_ok": ok_size, "diag_ok": ok_diag, "structure_ok": ok_off}
        )
    # rho block under the raw alignment; printed rho rows are the last nine
    # basis elements in printed order
    members = dict(decomposition.cells)[("rho",)]
    rho_printed = [[Poly(c) for c in row] for row in fixture["rho_block"]]
    printed_indices = list(range(34 - 9, 34))
    perm = report.permutation
    pos_of_printed = {p: u for u, p in enumerate(perm)}
    diffs = []
    diag_ok = True
    cross_ok = True
    for a, pi in enumerate(printed_indices):
        for b, pj in enumerate(printed_indices):
            got = decomposition.reduced[pos_of_printed[pi]][pos_of_printed[pj]]
            want = rho_printed[a][b]
            if got != want:
                diffs.append((pi + 1, pj + 1, str(got), str(want)))
                if a == b:
                    diag_ok = False
                if want in (Poly([0, -1, 1]), Poly([0, 1, -1])):
                    cross_ok = False
    out["rho"] = {
        "size_ok": len(members) == 9,
        "diag_ok": diag_ok,
        "cross_ok": cross_ok,
        "diffs": diffs,
    }
    return out
