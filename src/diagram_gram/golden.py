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
so the match is up to a within-cell permutation. That permutation is
recorded here (`PUBLISHED_ALIGNMENT`) and the findings are computed under
it: a permutation under which every self-consistent printed entry matches
is itself the proof that the table is reproduced.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

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
    # a path beside this module, as the package data is installed: on
    # Python 3.12 `importlib.resources` would load `inspect` at start
    path = os.path.join(os.path.dirname(__file__), "fixtures", FIXTURE_VERSION, name)
    with open(path) as f:
        return json.load(f)


class GoldenReport(NamedTuple):
    permutation: tuple[int, ...] | None  # ours index -> printed index
    hard_mismatches: list[tuple[int, int, object, object]]
    slips: list[tuple[int, int, object, object, object]]

    @property
    def ok(self) -> bool:
        """The published 34x34 check passes: the cells line up and no
        self-consistent printed entry disagrees."""
        return self.permutation is not None and not self.hard_mismatches

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


# ours index -> printed index, within each shape cell: under this alignment
# every self-consistent printed entry equals the computed signed k=3 (1,0)
# matrix, which is the whole claim the comparison makes
PUBLISHED_ALIGNMENT = (
    0, 1, 2, 3, 6, 7, 4, 5, 8, 9, 12, 10, 11, 15, 16, 13, 14, 17, 18,
    23, 24, 19, 20, 21, 22, 29, 26, 30, 25, 28, 27, 33, 31, 32,
)


def match_published_gram(gram: GramMatrix) -> GoldenReport:
    """A computed Gram matrix against the fixture under `PUBLISHED_ALIGNMENT`."""
    fixture = load_fixture("published_gram.json")
    printed = [
        [None if e is None else int(e) for e in row] for row in fixture["exponents"]
    ]
    asym = {(i, j) for i, j, _, _ in fixture.get("asymmetric_positions", [])}
    asym |= {(j, i) for i, j in asym}
    ours = gram.exponents
    # each (alpha, r1, r2) cell is numbered from i = 1
    our_sizes = []
    for key in gram.keys:
        if key.i == 1:
            our_sizes.append(0)
        our_sizes[-1] += 1
    printed_sizes = [size for _, _, size in fixture["cells"]]
    if our_sizes != printed_sizes:
        return GoldenReport(None, [(-1, -1, our_sizes, printed_sizes)], [])
    n = len(ours)
    inverse = {p: u for u, p in enumerate(PUBLISHED_ALIGNMENT)}
    hard = []
    slips = []
    for i in range(n):
        for j in range(n):
            got = ours[inverse[i]][inverse[j]]
            want = printed[i][j]
            if (i, j) in asym:
                # a contradiction is an off-diagonal pair, listed once
                if i < j:
                    slips.append((i, j, printed[i][j], printed[j][i], got))
            elif got != want:
                hard.append((i, j, got, want))
    return GoldenReport(PUBLISHED_ALIGNMENT, hard, slips)


def published_gram_report(gram: GramMatrix) -> GoldenReport:
    return match_published_gram(gram)


def published_reduced_report(decomposition, report: GoldenReport) -> dict:
    """Compare a reduced decomposition against the published reduced blocks.

    `report` is the raw-matrix match of `decomposition.gram`
    (`published_gram_report`); its permutation aligns the rho block.
    Returns a dict with per-block results (`size_ok`, `diag_ok`,
    `structure_ok`), the rho-block size and entry diffs under that
    alignment, and `ok`: whether the published reduction check passes.
    """
    fixture = load_fixture("published_reduced.json")
    out = {"scalar_blocks": [], "rho": None, "ok": False}
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
    pos_of_printed = {p: u for u, p in enumerate(report.permutation)}
    rho = decomposition.submatrix([pos_of_printed[p] for p in printed_indices])
    diffs = []
    for a, pi in enumerate(printed_indices):
        for b, pj in enumerate(printed_indices):
            got, want = rho[a][b], rho_printed[a][b]
            if got != want:
                diffs.append((pi + 1, pj + 1, str(got), str(want)))
    out["rho"] = {"size_ok": len(members) == 9, "diffs": diffs}
    out["ok"] = (
        all(b["size_ok"] and b["diag_ok"] and b["structure_ok"] for b in out["scalar_blocks"])
        and out["rho"]["size_ok"]
        and not diffs
    )
    return out
