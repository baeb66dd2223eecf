import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagram_gram.polynomials import Poly, linear_factor, phi_z2, quadratic_factor
from diagram_gram.stirling import binomial

coeff = st.integers(-9, 9)
polys = st.lists(coeff, max_size=6).map(Poly)


def test_basic_arithmetic():
    x = Poly.monomial(1)
    assert (x - Poly.one()) * (x + Poly.one()) == Poly([-1, 0, 1])
    assert str(Poly([8, 5, -4, -2, 1])) == "x^4-2*x^3-4*x^2+5*x+8"
    assert str(Poly.zero()) == "0"
    assert Poly([1, 2]) - Poly([1, 2]) == Poly.zero()
    assert Poly([0, 0, 0]) == Poly.zero()
    assert Poly([Fraction(2, 2)]) == Poly.one()


def test_eval_examples():
    assert Poly([-2, -1, 1]).eval_at(2) == 0  # roots of the level-1 quadratic
    assert Poly([-2, -1, 1]).eval_at(-1) == 0
    assert Poly([1, 1]).eval_at(Fraction(1, 2)) == Fraction(3, 2)


def test_monomial_and_degree():
    for e in range(5):
        m = Poly.monomial(e)
        assert m.degree() == e and m.is_monic()
    assert Poly.zero().degree() == -1


@given(polys, polys, st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_eval_is_ring_homomorphism(p, q, a):
    assert (p * q).eval_at(a) == p.eval_at(a) * q.eval_at(a)
    assert (p + q).eval_at(a) == p.eval_at(a) + q.eval_at(a)


@given(st.integers(2, 12), st.data())
@settings(max_examples=200, deadline=None)
def test_from_packed_reads_the_balanced_digits(width, data):
    # coefficients below 2**(width-1) in absolute value, either sign
    bound = (1 << width - 1) - 1
    p = Poly(data.draw(st.lists(st.integers(-bound, bound), max_size=6)))
    assert Poly.from_packed(p.eval_at(1 << width), width) == p


@pytest.mark.parametrize("value", [-3, -1, 0, 1, 5])
@pytest.mark.parametrize("width", [0, 1])
def test_from_packed_rejects_a_width_below_two(width, value):
    # no balanced digits exist there: width 1 with a positive value, and
    # width 0 with a nonzero one, used to loop while the digits grew
    with pytest.raises(ValueError, match="at least 2"):
        Poly.from_packed(value, width)


def test_phi_z2_examples():
    assert phi_z2(3, 1, 0, 0) == Poly.one()
    assert phi_z2(1, 0, 1, 0) == Poly([-2, -1, 1])
    assert phi_z2(1, 0, 1, 1) == Poly([0, -2, -1, 1])  # x^3-x^2-2x
    assert phi_z2(1, 0, -1, 0) == Poly.zero()
    assert phi_z2(1, 0, 0, -2) == Poly.zero()


def test_phi_partition_examples():
    # the plain falling product is the flip-fixed slice phi_z2(0, s, 0, r)
    assert phi_z2(0, 4, 0, 0) == Poly.one()
    assert phi_z2(0, 0, 0, 2) == Poly([0, -1, 1])  # x^2 - x
    assert phi_z2(0, 2, 0, 2) == Poly([6, -5, 1])  # (x-2)(x-3)
    assert phi_z2(0, 1, 0, -1) == Poly.zero()


def test_phi_factors_are_monic_of_expected_degree():
    for s1 in range(3):
        for s2 in range(3):
            for r1 in range(4):
                for r2 in range(4):
                    p = phi_z2(s1, s2, r1, r2)
                    assert p.is_monic() and p.degree() == 2 * r1 + r2


def test_json_roundtrip():
    p = Poly([Fraction(1, 3), -2, 5])
    assert Poly(map(Fraction, p.to_json())) == p
    assert Poly([8, 5, -4, -2, 1]).to_json() == ["8", "5", "-4", "-2", "1"]


def test_shift_identity_first_family():
    # composite product identity linking raised and lowered first parameters
    for t in range(3):
        for s1 in range(t, 5):
            for s2 in range(2):
                for r1 in range(5):
                    for r2 in range(4):
                        lhs = phi_z2(s1 + t, s2, r1 - t, r2)
                        rhs = phi_z2(s1 - t, s2, r1 - t, r2)
                        for m in range(1, 2 * t + 1):
                            c = binomial(2 * t, m) * binomial(r1 - t, m) * 2**m * math.factorial(m)
                            rhs = rhs - phi_z2(s1 + t, s2, r1 - t - m, r2).scalar_mul(c)
                        assert lhs == rhs


def test_atom_helpers():
    assert quadratic_factor(1) == Poly([-2, -1, 1])
    assert linear_factor(3) == Poly([-3, 1])
