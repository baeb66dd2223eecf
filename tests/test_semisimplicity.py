import random
from fractions import Fraction

import pytest

from diagram_gram import semisimplicity
from diagram_gram.determinant import DetResult, det_blocks
from diagram_gram.gram import DEFAULT_GUARD, build_gram
from diagram_gram.polynomials import Poly
from diagram_gram.reduction import reduced_decomposition
from diagram_gram.semisimplicity import admissible_profiles, global_poly, verdict


def test_partition_k1_global_poly():
    result, records = global_poly("partition", 1)
    assert result.poly == Poly.x()
    assert {(rec.s1, rec.s2) for rec in records} == {(0, 0)}


def test_global_poly_is_monic():
    for algebra in ("partition", "z2", "signed"):
        for k in (1, 2, 3):
            result, _ = global_poly(algebra, k)
            assert result.poly.is_monic()
            assert result.poly.is_integral()


def test_symbolic_parameter_is_semisimple():
    for algebra in ("partition", "z2", "signed"):
        v = verdict(algebra, 2, None)
        assert v.semisimple and not v.witnesses


def test_float_rejected():
    with pytest.raises(TypeError):
        verdict("partition", 2, 2.0)


def test_partition_k2_at_one():
    v = verdict("partition", 2, 1)
    assert not v.semisimple
    assert any("x-1" in w[2] or "x^2-x" in w[2] for w in v.witnesses)


def test_headline_case_z2_k4_q2():
    v = verdict("z2", 4, 2)
    assert not v.semisimple
    assert any(w[2] == "x^2-x-2" for w in v.witnesses)


def test_signed_k3_q2_not_semisimple():
    v = verdict("signed", 3, 2)
    assert not v.semisimple
    assert any(w[2] == "x^2-x-2" for w in v.witnesses)


def test_factor_scan_agrees_with_full_evaluation():
    rng = random.Random(2024)
    for algebra in ("partition", "z2", "signed"):
        for k in (1, 2, 3):
            result, _ = global_poly(algebra, k)
            for _ in range(50):
                q = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                v = verdict(algebra, k, q)
                assert v.semisimple == (result.poly.eval_at(q) != 0), (algebra, k, q)


def test_large_integer_parameters_are_semisimple():
    for algebra in ("partition", "z2", "signed"):
        for k in (1, 2, 3):
            for q in range(2 * k, 2 * k + 5):
                assert verdict(algebra, k, q).semisimple


def test_admissible_profiles_windows():
    assert admissible_profiles("partition", 2) == ((0, 0), (1, 0), (2, 0))
    assert (2, 1) not in admissible_profiles("signed", 3)
    assert (2, 1) in admissible_profiles("z2", 3)


def test_verdict_json_shape():
    v = verdict("z2", 2, Fraction(1, 2))
    payload = v.to_json()
    assert payload["q"] == "1/2"
    assert isinstance(payload["witnesses"], list)
    assert payload["caveat"]


def test_global_poly_is_the_product_of_the_profile_determinants():
    for algebra in ("partition", "z2", "signed"):
        for k in (1, 2, 3):
            want = Poly.one()
            for s1, s2 in admissible_profiles(algebra, k):
                dec = reduced_decomposition(algebra, k, s1, s2)
                if dec.gram.dimension():
                    want = want * det_blocks(dec).poly
            result, _ = global_poly(algebra, k)
            assert result.poly == want, (algebra, k)


def test_det_result_multiplies_out_once_on_demand():
    result = DetResult(((Poly([-1, 1]), 2), (Poly.x(), 1)))
    assert "poly" not in vars(result)
    assert result.poly == Poly([0, 1, -2, 1])  # (x-1)^2 x
    assert vars(result)["poly"] is result.poly


def test_rational_verdict_leaves_the_product_unbuilt():
    # other tests read `.poly` of the shared cached results
    global_poly.cache_clear()
    cases = [(a, k) for a in ("partition", "z2", "signed") for k in (1, 2, 3)] + [("z2", 4)]
    for algebra, k in cases:
        verdict(algebra, k, Fraction(5, 2))
        assert "poly" not in vars(global_poly(algebra, k, DEFAULT_GUARD)[0]), (algebra, k)


def test_verdict_never_renders_the_gram_entries():
    # the pipeline reads the exponent grid; the Poly view is for output
    for cached in (build_gram, reduced_decomposition, global_poly):
        cached.cache_clear()
    for algebra in ("z2", "signed"):
        verdict(algebra, 3, 2)
        built = build_gram.cache_info().misses
        for s1, s2 in admissible_profiles(algebra, 3):
            gram = build_gram(algebra, 3, s1, s2, DEFAULT_GUARD)
            assert "entries" not in vars(gram), (algebra, s1, s2)
        assert build_gram.cache_info().misses == built  # the matrices verdict built


def test_symbolic_verdict_matches_the_product():
    for algebra in ("partition", "z2", "signed"):
        for k in (1, 2, 3):
            v = verdict(algebra, k, None)
            assert not v.witnesses
            assert v.semisimple == (not global_poly(algebra, k)[0].poly.is_zero())


def test_symbolic_verdict_fails_on_a_zero_factor(monkeypatch):
    zero = DetResult(((Poly.x(), 1), (Poly.zero(), 1)))
    monkeypatch.setattr(semisimplicity, "global_poly", lambda *args: (zero, ()))
    assert not verdict("z2", 2, None).semisimple


@pytest.mark.parametrize("k", range(1, 7))
def test_partition_non_semisimple_integers_match_the_literature(k):
    # P_k(q) is semisimple iff q is not in {0, ..., 2k-2} (Martin & Saleur
    # 1994; Halverson & Ram, Eur. J. Combin. 26, 2005)
    flagged = {q for q in range(-2, 2 * k + 3) if not verdict("partition", k, q).semisimple}
    assert flagged == set(range(2 * k - 1))
