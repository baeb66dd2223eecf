import itertools
import random

import pytest

from diagram_gram.diagrams import PartitionDiagram, points
from diagram_gram.gram import enumerate_diagrams
from diagram_gram.partitions import set_partitions
from diagram_gram.z2diagrams import Z2Diagram
from test_partitions import make_diagram


def all_diagrams(k):
    return [make_diagram(PartitionDiagram, k, b) for b in set_partitions(range(2 * k))]


def identity(k):
    """The identity diagram: each top vertex joined to its bottom vertex."""
    return make_diagram(PartitionDiagram, k, [[i, k + i] for i in range(k)])


def from_signed_blocks(k, blocks):
    """The diagram of blocks of 1-based signed vertices: +i is top i, -i is
    bottom i'."""
    conv = [[(v - 1) if v > 0 else (k - v - 1) for v in block] for block in blocks]
    return make_diagram(PartitionDiagram, k, conv)


def test_identity():
    for k in (1, 2, 3):
        ident = identity(k)
        assert ident.propagating_number() == k
        for d in all_diagrams(k) if k <= 2 else []:
            left, loops = ident.multiply(d)
            assert left == d and loops == 0
            right, loops = d.multiply(ident)
            assert right == d and loops == 0


def test_single_vertex_shape_squares_to_itself_with_one_loop():
    d = make_diagram(PartitionDiagram, 1, [[0], [1]])
    prod, loops = d.multiply(d)
    assert prod == d
    assert loops == 1
    assert d.propagating_number() == 0


def test_propagating_examples():
    k = 3
    singles = make_diagram(PartitionDiagram, k, [[v] for v in range(2 * k)])
    assert singles.propagating_number() == 0
    assert identity(k).propagating_number() == k


def test_k_mismatch():
    with pytest.raises(ValueError):
        identity(2).multiply(identity(3))


def test_associativity_exhaustive_k2_sampled_k3():
    for k, samples in ((2, None), (3, 400)):
        diagrams = all_diagrams(k)
        if samples is None:
            triples = itertools.product(diagrams, repeat=3)
        else:
            rng = random.Random(11)
            triples = (
                (rng.choice(diagrams), rng.choice(diagrams), rng.choice(diagrams))
                for _ in range(samples)
            )
        for a, b, c in triples:
            ab, l_ab = a.multiply(b)
            left, l_left = ab.multiply(c)
            bc, l_bc = b.multiply(c)
            right, l_right = a.multiply(bc)
            assert left == right
            assert l_ab + l_left == l_bc + l_right


def test_propagating_submultiplicative_exhaustive_k3():
    for k in (2, 3):
        diagrams = all_diagrams(k)
        for a, b in itertools.product(diagrams, repeat=2):
            prod, _ = a.multiply(b)
            assert prod.propagating_number() <= min(
                a.propagating_number(), b.propagating_number()
            )


def test_self_loops_dominate_on_basis_diagrams():
    # for basis diagrams, cross loops never exceed either self-loop count
    for k in (2, 3):
        for s in range(k + 1):
            basis = [d for _, d in enumerate_diagrams("partition", k, s)]
            self_loops = {}
            for d in basis:
                _, l = d.multiply(d)
                self_loops[d] = l
            for a, b in itertools.product(basis, repeat=2):
                _, l = a.multiply(b)
                assert l <= min(self_loops[a], self_loops[b])


def test_multiply_result_is_canonical_and_size_preserving():
    a = from_signed_blocks(2, [[1, -2], [2], [-1]])
    b = from_signed_blocks(2, [[1, 2, -1], [-2]])
    prod, _ = a.multiply(b)
    # masks ordered by least point, partitioning the four points
    assert make_diagram(PartitionDiagram, 2, map(points, prod.masks)).masks == prod.masks


def test_text_and_signed_blocks_roundtrip():
    d = from_signed_blocks(2, [[1, -2], [2], [-1]])
    assert str(d) == "[{1,2'}|{2}|{1'}]"


@pytest.mark.parametrize(
    "profile", [("partition", 3, 1), ("partition", 2, 0), ("z2", 2, 1, 0), ("signed", 3, 1, 0)]
)
def test_repr_evaluates_to_an_equal_diagram(profile):
    # basis diagrams come from their row views, products from their masks
    basis = [d for _, d in enumerate_diagrams(*profile)]
    products = [a.multiply(b)[0] for a in basis[:5] for b in basis[-5:]]
    for d in basis + products:
        again = eval(repr(d), {"PartitionDiagram": PartitionDiagram, "Z2Diagram": Z2Diagram})
        assert type(again) is type(d) and again == d
    assert repr(identity(2)) == "PartitionDiagram.from_masks(2, (5, 10))"
