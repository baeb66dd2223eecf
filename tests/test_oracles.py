"""Independent third-route oracles for the two load-bearing kernels.

Diagram multiplication is re-implemented here as breadth-first search over
the glued incidence graph, and determinants are cross-checked against
sympy's symbolic determinant. Both oracles share no code with the library
paths they check.
"""

import random

import pytest
import sympy

from diagram_gram.determinant import det_direct
from diagram_gram.diagrams import PartitionDiagram
from diagram_gram.gram import build_gram, enumerate_diagrams
from diagram_gram.partitions import set_partitions
from diagram_gram.polynomials import Poly
from diagram_gram.z2diagrams import Z2Diagram
from test_partitions import make_diagram, part_of


def multiply_oracle(d1: PartitionDiagram, d2: PartitionDiagram):
    """Compose two diagrams by BFS over the union of their edge sets."""
    k = d1.k
    edges = {v: set() for v in range(3 * k)}

    def connect(a, b):
        edges[a].add(b)
        edges[b].add(a)

    for block in part_of(d1).blocks:
        for a in block:
            for b in block:
                if a != b:
                    connect(a, b)
    for block in part_of(d2).blocks:
        for a in block:
            for b in block:
                if a != b:
                    connect(a + k, b + k)
    seen = set()
    components = []
    for start in range(3 * k):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        comp = []
        while queue:
            v = queue.pop()
            comp.append(v)
            for w in edges[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        components.append(sorted(comp))
    loops = sum(1 for comp in components if all(k <= v < 2 * k for v in comp))
    blocks = []
    for comp in components:
        outer = [v if v < k else v - k for v in comp if v < k or v >= 2 * k]
        if outer:
            blocks.append(outer)
    return make_diagram(PartitionDiagram, k, blocks), loops


def random_diagram(rng, k):
    parts = list(set_partitions(range(2 * k)))
    return make_diagram(PartitionDiagram, k, rng.choice(parts))


def test_multiplication_against_bfs_oracle():
    rng = random.Random(5)
    for k in (1, 2, 3, 4):
        for _ in range(60):
            a, b = random_diagram(rng, k), random_diagram(rng, k)
            assert a.multiply(b) == multiply_oracle(a, b)


def test_multiplication_oracle_exhaustive_k2():
    diagrams = [
        make_diagram(PartitionDiagram, 2, blocks) for blocks in set_partitions(range(4))
    ]
    for a in diagrams:
        for b in diagrams:
            assert a.multiply(b) == multiply_oracle(a, b)


def test_multiplication_of_products_against_bfs_oracle():
    # a product is built from block masks; the oracle reads its `part_of`
    rng = random.Random(23)
    for k in (2, 3, 4):
        parts = list(set_partitions(range(2 * k)))
        for _ in range(40):
            a, b, c, d = (
                make_diagram(PartitionDiagram, k, rng.choice(parts)) for _ in range(4)
            )
            ab, _ = a.multiply(b)
            cd, _ = c.multiply(d)
            for x, y in ((ab, c), (a, cd), (ab, cd)):
                assert x.multiply(y) == multiply_oracle(x, y)


def z2_multiply_oracle(a: Z2Diagram, b: Z2Diagram):
    """The product of two doubled diagrams as that of the partition
    diagrams on two rows of 2k points with the same partitions."""
    prod, loops = multiply_oracle(
        PartitionDiagram.from_masks(2 * a.k, a.masks),
        PartitionDiagram.from_masks(2 * b.k, b.masks),
    )
    return Z2Diagram.from_masks(a.k, prod.masks), loops


def test_z2_multiplication_of_mask_built_diagrams_against_bfs_oracle():
    # basis diagrams come from their row views, products from masks
    rng = random.Random(29)
    for k, s1, s2 in ((1, 0, 0), (2, 1, 0), (2, 0, 1), (3, 1, 0), (3, 0, 0)):
        basis = [d for _, d in enumerate_diagrams("z2", k, s1, s2)]
        for _ in range(60):
            a, b, c = (rng.choice(basis) for _ in range(3))
            ab, loops = a.multiply(b)
            assert type(ab) is Z2Diagram
            assert (ab, loops) == z2_multiply_oracle(a, b)
            assert ab.multiply(c) == z2_multiply_oracle(ab, c)
            assert c.multiply(ab) == z2_multiply_oracle(c, ab)


def test_multiplication_rejects_mixed_families():
    plain = make_diagram(PartitionDiagram, 2, [[0, 1, 2, 3]])
    doubled = make_diagram(Z2Diagram, 1, [[0, 1, 2, 3]])
    with pytest.raises(TypeError):
        plain.multiply(doubled)
    with pytest.raises(TypeError):
        doubled.multiply(plain)


def _to_sympy(matrix):
    x = sympy.Symbol("x")
    return sympy.Matrix(
        [[sympy.Poly(list(reversed(p.coeffs)) or [0], x).as_expr() for p in row] for row in matrix]
    )


def test_det_direct_against_sympy_random():
    rng = random.Random(17)
    x = sympy.Symbol("x")
    for n in (2, 3, 4, 5):
        for _ in range(6):
            rows = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    p = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
                    rows[i][j] = rows[j][i] = p
            matrix = tuple(map(tuple, rows))
            ours = det_direct(matrix)
            theirs = sympy.expand(_to_sympy(matrix).det())
            assert sympy.Poly(theirs, x).all_coeffs() == list(reversed(ours.coeffs)) or (
                theirs == 0 and ours.is_zero()
            )


def test_det_direct_against_sympy_gram():
    x = sympy.Symbol("x")
    for algebra, k, s1 in (("partition", 3, 1), ("partition", 3, 0), ("z2", 2, 0)):
        gram = build_gram(algebra, k, s1, 0)
        ours = det_direct(gram.entries)
        theirs = sympy.expand(_to_sympy(gram.entries).det())
        assert sympy.Poly(theirs, x).all_coeffs() == list(reversed(ours.coeffs))
