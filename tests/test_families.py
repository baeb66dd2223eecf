"""The per-family spec: profile windows, dimensions, phi and its atoms, and
the map that makes the plain partition family the flip-fixed slice of the
doubled formulas."""

import dataclasses

import pytest

from diagram_gram.families import FAMILIES
from diagram_gram.gram import (
    WindowError,
    build_gram,
    check_window,
    enumerate_diagrams,
    projected_dimension,
)
from diagram_gram.semisimplicity import admissible_profiles

CASES = [
    (algebra, k)
    for algebra in FAMILIES
    for k in range(1, (4 if algebra == "partition" else 3) + 1)
]


def accepted_profiles(algebra, k):
    out = set()
    for s1 in range(-1, k + 3):
        for s2 in range(-1, k + 3):
            try:
                check_window(algebra, k, s1, s2)
            except WindowError:
                continue
            out.add((s1, s2))
    return out


@pytest.mark.parametrize("algebra, k", CASES, ids=str)
def test_profile_set_is_the_window(algebra, k):
    profiles = FAMILIES[algebra].profiles(k)
    assert len(set(profiles)) == len(profiles)
    assert set(profiles) == accepted_profiles(algebra, k)
    assert admissible_profiles(algebra, k) == profiles


@pytest.mark.parametrize("algebra, k", CASES, ids=str)
def test_projected_dimension_counts_the_basis(algebra, k):
    for s1, s2 in FAMILIES[algebra].profiles(k):
        assert projected_dimension(algebra, k, s1, s2) == len(
            enumerate_diagrams(algebra, k, s1, s2)
        )


@pytest.mark.parametrize("algebra, k", CASES, ids=str)
def test_phi_is_the_product_of_its_atoms(algebra, k):
    for profile in FAMILIES[algebra].profiles(k):
        gram = build_gram(algebra, k, *profile)
        for key in gram.keys:
            phi = gram.phi(key)
            s1, s2, r1, r2 = gram.doubled(key)
            for x in range(-3, 9):
                value = 1
                for j in range(r1):
                    value *= x * x - x - 2 * (s1 + j)
                for l in range(r2):
                    value *= x - s2 - l
                assert phi.eval_at(x) == value
            assert phi.degree() == gram.diagonal_degree(key)


def test_plain_spec_reads_the_doubled_formulas_at_the_slice():
    plain = FAMILIES["partition"]
    for s in range(6):
        assert plain.through_count(s, 0) == s
        for r in range(6):
            assert plain.to_doubled(s, 0, r, 0) == (0, s, 0, r)
    for name in ("z2", "signed"):
        family = FAMILIES[name]
        assert family.to_doubled(1, 2, 3, 4) == (1, 2, 3, 4)
        assert family.through_count(1, 2) == 4


def test_family_records():
    assert list(FAMILIES) == ["partition", "z2", "signed"]
    assert {name: f.ambient for name, f in FAMILIES.items()} == {
        "partition": "partition", "z2": "z2", "signed": "z2",
    }
    assert [name for name, f in FAMILIES.items() if f.has_rho] == ["signed"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        FAMILIES["z2"].has_rho = True
