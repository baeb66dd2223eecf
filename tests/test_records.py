"""The package's records: the value records are `NamedTuple`s, the ones
that hold matrices or cache a `cached_property` are small classes, and every
one of them rejects attribute assignment."""

import pytest

from diagram_gram.determinant import det_blocks
from diagram_gram.diagrams import RowView
from diagram_gram.families import FAMILIES
from diagram_gram.golden import GoldenReport
from diagram_gram.gram import DiagramKey, GramMatrix, build_gram
from diagram_gram.polynomials import Poly
from diagram_gram.reduction import DiffEntry, coarsening_poset, reduced_decomposition
from diagram_gram.semisimplicity import FactorRecord, verdict
from diagram_gram.verify import CheckResult


def records():
    """One instance of each record, by name."""
    decomposition = reduced_decomposition("z2", 2, 1, 0)
    gram = decomposition.gram
    key = gram.keys[0]
    return {
        "DiagramKey": key,
        "RowView": gram.diagrams[0].row_view(),
        "Family": FAMILIES["z2"],
        "GramMatrix": gram,
        "CoarseningPoset": coarsening_poset(gram),
        "DiffEntry": DiffEntry(("rho",), key, key, Poly.one(), Poly.zero(), True),
        "BlockDecomposition": decomposition,
        "DetResult": det_blocks(decomposition),
        "FactorRecord": FactorRecord(1, 0, Poly.monomial(1)),
        "Verdict": verdict("z2", 2, 2),
        "GoldenReport": GoldenReport(None, [], []),
        "CheckResult": CheckResult("gram-invariants", True, "", 0.0),
    }


@pytest.mark.parametrize("name", list(records()))
def test_every_record_rejects_attribute_assignment(name):
    record = records()[name]
    field = next(iter(getattr(record, "_fields", None) or vars(record)))
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.planted = value
    assert getattr(record, field) is value


def test_cached_properties_survive_the_frozen_records():
    decomposition = reduced_decomposition("z2", 2, 1, 0)
    gram = decomposition.gram
    assert gram.entries is gram.entries
    assert gram.orbits is gram.orbits
    assert decomposition.diffs is decomposition.diffs
    assert det_blocks(decomposition).poly == det_blocks(decomposition).poly
    view = gram.diagrams[0].row_view()
    assert view.through_blocks is view.through_blocks


def test_matrix_records_compare_by_identity():
    """The per-matrix caches key on a `GramMatrix` by identity, and no
    record that holds a matrix hashes or compares its grids by value."""
    gram = build_gram("z2", 2, 1, 0)
    twin = GramMatrix(
        gram.algebra, gram.k, gram.s1, gram.s2, gram.keys, gram.diagrams,
        gram.exponents, gram.symmetry,
    )
    assert twin != gram and len({gram, twin}) == 2
    poset = coarsening_poset(gram)
    assert type(poset)(poset.keys, poset.leq) != poset


def test_value_records_compare_by_value():
    view = RowView(blocks=(0b101, 0b010), through=(0,), fixed=(True, True))
    assert view == RowView((0b101, 0b010), (0,), (True, True))
    assert hash(view) == hash(RowView((0b101, 0b010), (0,), (True, True)))
    assert view != RowView((0b101, 0b010), (), (True, True))
    assert repr(view) == "RowView(blocks=(5, 2), through=(0,), fixed=(True, True))"
    key = DiagramKey(0, ((1,),), 1, 0)
    assert key._replace(i=3) == DiagramKey(3, ((1,),), 1, 0)
    det = det_blocks(reduced_decomposition("z2", 2, 1, 0))
    assert type(det)(det.factored) == det
    assert hash(type(det)(det.factored)) == hash(det)
