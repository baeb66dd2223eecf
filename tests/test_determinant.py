from dataclasses import replace

import pytest

from diagram_gram.determinant import det_blocks, det_direct
from diagram_gram.gram import build_gram
from diagram_gram.polynomials import Poly, phi_z2
from diagram_gram.reduction import reduced_decomposition


def test_identity_and_diagonal():
    n = 4
    ident = tuple(
        tuple(Poly.one() if i == j else Poly.zero() for j in range(n)) for i in range(n)
    )
    assert det_direct(ident) == Poly.one()
    diag = (
        (Poly.x(), Poly.zero()),
        (Poly.zero(), Poly([-2, -1, 1])),
    )
    assert det_direct(diag) == Poly([0, -2, -1, 1])  # x^3-x^2-2x
    assert det_direct(()) == Poly.one()


def test_zero_row_shortcut():
    m = ((Poly.zero(), Poly.zero()), (Poly.one(), Poly.x()))
    assert det_direct(m) == Poly.zero()


def test_non_square_rejected():
    with pytest.raises(ValueError):
        det_direct(((Poly.one(),), (Poly.one(), Poly.x())))


def test_2x2_cross_check():
    a, b, c, d = Poly([1, 1]), Poly([0, 2]), Poly([3]), Poly([1, 0, 1])
    assert det_direct(((a, b), (c, d))) == a * d - b * c


def test_published_determinant_factorization():
    gram = build_gram("signed", 3, 1, 0)
    dec = reduced_decomposition("signed", 3, 1, 0)
    direct = det_direct(gram.entries)
    reduced = det_direct(dec.reduced)
    blocks = det_blocks(dec)
    assert direct == reduced == blocks.poly
    assert direct.is_monic() and direct.is_integral()
    assert direct.degree() == sum(2 * key.r1 + key.r2 for key in gram.keys)
    # det G == x^9 * det(paired-edge block) * det(tail block)
    factors = dict(blocks.factored)
    assert factors[Poly.x()] == 9
    pair_det = det_direct(dec.block(("cell", 1, 0)))
    rho_det = det_direct(dec.block(("rho",)))
    assert direct == Poly.monomial(9) * pair_det * rho_det
    # the paired-edge block factors as ((x^2-x-2)^2 - 4)^6
    q = phi_z2(1, 0, 1, 0)
    pair = q * q - Poly([4])
    expected = Poly.one()
    for _ in range(6):
        expected = expected * pair
    assert pair_det == expected


def test_det_blocks_keeps_diagonal_atoms_symbolic():
    dec = reduced_decomposition("z2", 3, 1, 1)
    result = det_blocks(dec)
    assert "poly" not in vars(result)  # det_blocks leaves the factors unmultiplied
    assert result.poly == det_direct(dec.gram.entries)
    assert all(mult >= 1 for _, mult in result.factored)



def test_det_blocks_follows_a_planted_coupling():
    # det_blocks multiplies the components of the whole pattern, so an
    # entry joining two cells is not dropped
    dec = reduced_decomposition("z2", 3, 1, 0)
    (_, first), (_, second) = dec.cells[:2]
    u, v = first[0], second[0]
    rows = [list(row) for row in dec.reduced]
    rows[u][v] = rows[v][u] = Poly.one()
    nonzero = [set(row) for row in dec.nonzero]
    nonzero[u].add(v)
    nonzero[v].add(u)
    planted = replace(
        dec,
        reduced=tuple(map(tuple, rows)),
        nonzero=tuple(tuple(sorted(row)) for row in nonzero),
    )
    assert det_blocks(planted).poly == det_direct(planted.reduced)
    assert det_blocks(planted).poly != det_blocks(dec).poly
