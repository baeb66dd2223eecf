import gc
import importlib
import math
import pkgutil
import random
import weakref
from fractions import Fraction

import pytest

import diagram_gram
from diagram_gram import reduction, semisimplicity, verify
from diagram_gram.determinant import DetResult, det_blocks
from diagram_gram.diagrams import Diagram, PartitionDiagram
from diagram_gram.families import FAMILIES
from diagram_gram.gram import DEFAULT_GUARD, GramMatrix, build_gram, enumerate_diagrams
from diagram_gram.polynomials import Poly, linear_factor, quadratic_factor
from diagram_gram.reduction import coarsening_poset, reduced_decomposition
from diagram_gram.semisimplicity import FactorRecord, admissible_profiles, global_poly, verdict
from diagram_gram.z2diagrams import Z2Diagram


def test_partition_k1_global_poly():
    result, records = global_poly("partition", 1)
    assert result.poly == Poly.monomial(1)
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


def test_factor_scan_agrees_with_full_evaluation(memo_global_poly):
    rng = random.Random(2024)
    for algebra in ("partition", "z2", "signed"):
        for k in (1, 2, 3):
            result, _ = memo_global_poly(algebra, k)
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
    result = DetResult(((Poly([-1, 1]), 2), (Poly.monomial(1), 1)))
    assert "poly" not in vars(result)
    assert result.poly == Poly([0, 1, -2, 1])  # (x-1)^2 x
    assert vars(result)["poly"] is result.poly


def test_rational_verdict_leaves_the_product_unbuilt(monkeypatch):
    # the DetResult the verdict itself read, never multiplied out
    read = []
    product = semisimplicity.global_poly

    def recorded(*args):
        result = product(*args)
        read.append(result[0])
        return result

    monkeypatch.setattr(semisimplicity, "global_poly", recorded)
    cases = [(a, k) for a in ("partition", "z2", "signed") for k in (1, 2, 3)] + [("z2", 4)]
    for algebra, k in cases:
        verdict(algebra, k, Fraction(5, 2))
        assert len(read) == 1 and "poly" not in vars(read.pop()), (algebra, k)


def test_verdict_never_renders_the_gram_entries(monkeypatch):
    # the pipeline reads the exponent grid; the Poly view is for output.
    # Every read of `entries` is recorded while the verdicts run, on
    # whichever matrix it is
    rendered = []
    render = GramMatrix.entries.func

    def recorded(gram):
        rendered.append((gram.algebra, gram.k, gram.s1, gram.s2))
        return render(gram)

    monkeypatch.setattr(GramMatrix, "entries", property(recorded))
    for algebra in ("z2", "signed"):
        for cached in (enumerate_diagrams, build_gram, reduced_decomposition, global_poly):
            cached.cache_clear()
        verdict(algebra, 3, 2)
        # the verdict built every profile's matrix while it was watched
        assert build_gram.cache_info().misses == len(admissible_profiles(algebra, 3))
    assert rendered == []
    build_gram("z2", 3, 1, 0).entries
    assert rendered == [("z2", 3, 1, 0)]  # the recorder sees a read


def test_verdict_builds_no_set_partition_and_no_prediction(monkeypatch):
    # a diagram is its block masks and nothing else: the package defines no
    # SetPartition and a diagram has no `part`. A decomposition builds its
    # closed-form predictions only when they are read.
    for module in pkgutil.iter_modules(diagram_gram.__path__):
        assert not hasattr(importlib.import_module(f"diagram_gram.{module.name}"), "SetPartition")
    for cls in (Diagram, PartitionDiagram, Z2Diagram):
        assert not hasattr(cls, "part") and "_part" not in cls.__slots__
    predicted = []
    predict = reduction.predicted_blocks

    def recorded_predict(gram, cells):
        predicted.append((gram.s1, gram.s2))
        return predict(gram, cells)

    monkeypatch.setattr(reduction, "predicted_blocks", recorded_predict)
    for cached in (enumerate_diagrams, build_gram, reduced_decomposition, global_poly):
        cached.cache_clear()
    assert not verdict("z2", 3, 2).semisimple
    assert build_gram.cache_info().misses == len(admissible_profiles("z2", 3))
    assert predicted == []
    # the recorder sees a read
    decomposition = reduced_decomposition("z2", 3, 1, 0)
    assert decomposition.diffs == () and predicted == [(1, 0)]


def test_global_poly_releases_each_profile(monkeypatch):
    # nothing caches a profile: once det_blocks has taken a profile's
    # factors, nothing keeps its matrix or its reduction alive
    seen = []

    def watched(*args):
        decomposition = reduced_decomposition(*args)
        seen.append((weakref.ref(decomposition.gram), weakref.ref(decomposition)))
        return decomposition

    caches = (enumerate_diagrams, build_gram, coarsening_poset, reduced_decomposition)
    for cached in (*caches, global_poly):
        cached.cache_clear()
    monkeypatch.setattr(semisimplicity, "reduced_decomposition", watched)
    global_poly("z2", 4, DEFAULT_GUARD)
    gc.collect()
    assert len(seen) == len(admissible_profiles("z2", 4)) > 1
    first_gram, first_decomposition = seen[0]
    assert first_gram() is None
    assert first_decomposition() is None
    for cached in caches:
        assert cached.cache_info().currsize <= 1, cached


@pytest.mark.parametrize(
    "run, profiles",
    [
        (lambda: global_poly("z2", 4, DEFAULT_GUARD), len(admissible_profiles("z2", 4))),
        # the partition family runs one size higher
        (lambda: verify.run_all_checks(2), sum(
            len(family.profiles(k))
            for family in FAMILIES.values() for k in range(1, 3 + family.plain)
        )),
    ],
    ids=["global_poly", "run_all_checks"],
)
def test_each_profile_is_reduced_with_the_last_one_released(monkeypatch, run, profiles):
    # one profile alive at a time: when `reduce_gram` starts on a profile,
    # no earlier profile's matrix or decomposition is alive. The collector
    # is off, so an object counts as released only once nothing refers to it
    earlier = []
    reduce = reduction.reduce_gram

    def watched(gram):
        alive = [ref for ref in earlier if ref() is not None]
        assert not alive, f"profile {len(earlier) // 2}: {len(alive)} earlier objects alive"
        decomposition = reduce(gram)
        earlier.extend((weakref.ref(gram), weakref.ref(decomposition)))
        return decomposition

    caches = (enumerate_diagrams, build_gram, coarsening_poset, reduced_decomposition, global_poly)
    for cached in caches:
        cached.cache_clear()
    monkeypatch.setattr(reduction, "reduce_gram", watched)
    gc.collect()
    gc.disable()
    try:
        run()
    finally:
        gc.enable()
    assert len(earlier) == 2 * profiles


def test_symbolic_verdict_matches_the_product():
    for algebra in ("partition", "z2", "signed"):
        for k in (1, 2, 3):
            v = verdict(algebra, k, None)
            assert not v.witnesses
            assert v.semisimple == (not global_poly(algebra, k)[0].poly.is_zero())


def test_symbolic_verdict_fails_on_a_zero_factor(monkeypatch):
    zero = DetResult(((Poly.monomial(1), 1), (Poly.zero(), 1)))
    monkeypatch.setattr(semisimplicity, "global_poly", lambda *args: (zero, ()))
    assert not verdict("z2", 2, None).semisimple


@pytest.mark.parametrize("k", range(1, 7))
def test_partition_non_semisimple_integers_match_the_literature(k, memo_global_poly):
    # P_k(q) is semisimple iff q is not in {0, ..., 2k-2} (Martin & Saleur
    # 1994; Halverson & Ram, Eur. J. Combin. 26, 2005)
    flagged = {q for q in range(-2, 2 * k + 3) if not verdict("partition", k, q).semisimple}
    assert flagged == set(range(2 * k - 1))


# -- witness naming -----------------------------------------------------------


def remainder_by_monic(poly, atom):
    """Remainder of poly modulo a monic atom, by long division."""
    rem = list(poly.coeffs)
    d = atom.degree()
    for top in range(len(rem) - 1, d - 1, -1):
        lead = rem[top]
        for j, c in enumerate(atom.coeffs):
            rem[top - d + j] -= lead * c
    return Poly(rem[:d])


def reference_atom(poly, q):
    """The division scan: the first atom x^2-x-2m, then x-m, for m = 0, 1, ...
    below max(8, deg + 2), that vanishes at q and divides poly exactly."""
    square = q * q - q  # x^2-x-2m vanishes at q iff this is 2m
    for m in range(max(8, poly.degree() + 2)):
        for make, vanishes in ((quadratic_factor, square == 2 * m), (linear_factor, q == m)):
            if vanishes and remainder_by_monic(poly, make(m)).is_zero():
                return make(m)
    return None


def reference_witness(poly, q):
    atom = reference_atom(poly, q)
    return str(poly if atom is None else atom)


WITNESS_CASES = (
    [("z2", k) for k in range(1, 5)]
    + [("signed", k) for k in range(2, 5)]
    + [("partition", k) for k in range(1, 7)]
)
WITNESS_QS = [Fraction(q) for q in range(-12, 40)] + [
    Fraction(a, b) for b in (2, 3, 5) for a in range(-7, 15)
]


def test_witness_atoms_match_the_division_scan(memo_global_poly):
    pairs = differences = 0
    for algebra, k in WITNESS_CASES:
        for rec in memo_global_poly(algebra, k)[1]:
            for q in WITNESS_QS:
                pairs += 1
                differences += rec.describe_at(q) != reference_witness(rec.poly, q)
    assert (pairs, differences) == (22184, 0)


def roots(*rs):
    return math.prod(map(linear_factor, rs), start=Poly.one())


ATOM_CASES = [
    # q = 0..3: both atoms vanish; the quadratic's level is lower or equal
    (roots(0, 1), 0, "x^2-x"),
    (roots(0, 5), 0, "x"),
    (roots(1, 0), 1, "x^2-x"),
    (roots(1, 5), 1, "x-1"),
    (roots(2, -1), 2, "x^2-x-2"),
    (roots(2, 5), 2, "x-2"),
    (roots(3, -2), 3, "x^2-x-6"),
    (roots(3, 7), 3, "x-3"),
    # a negative q names only a quadratic
    (roots(-2, 3), -2, "x^2-x-6"),
    (roots(-2, 4), -2, "x^2-2*x-8"),
    # the level cap max(8, deg + 2): x^2-x-20 has level 10
    (roots(-4, 5, *[0] * 6), -4, "x^8-x^7-20*x^6"),
    (roots(-4, 5, *[0] * 7), -4, "x^2-x-20"),
    (roots(7, 20), 7, "x-7"),
    (roots(7, 20), 20, "x^2-27*x+140"),
    # the zero polynomial is divisible by every atom
    (Poly.zero(), 2, "x^2-x-2"),
    (Poly.zero(), -1, "x^2-x-2"),
    (Poly.zero(), 4, "x-4"),
    (Poly.zero(), 9, "0"),
    (Poly.zero(), Fraction(1, 2), "0"),
]


@pytest.mark.parametrize("poly, q, want", ATOM_CASES, ids=str)
def test_witness_names_the_lowest_dividing_atom(poly, q, want):
    assert FactorRecord(0, 0, poly).describe_at(q) == want
    assert reference_witness(poly, Fraction(q)) == want
