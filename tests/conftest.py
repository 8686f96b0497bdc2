import itertools
import random

import pytest

from quiltops.rings import QQ, GF2
from quiltops.diagrams import FiniteCategory, DiagramOfAlgebras
from quiltops.cochains import Cochain
from quiltops.quilts import Quilt
from quiltops.trees import Tree
from quiltops.words import Word


def assert_as_validated(x):
    """x, a word, tree or quilt built unchecked by some lemma, passes the
    validating constructors, which rebuild its word and tree slot by slot
    (the Euler-tour arrays included)."""
    for part in (x.word, x.tree) if isinstance(x, Quilt) else (x,):
        want = (Word(part.letters, part.n) if isinstance(part, Word)
                else Tree(part.parent, part.children))
        slots = type(part).__slots__
        assert [getattr(part, s) for s in slots] == [getattr(want, s) for s in slots], x
    if isinstance(x, Quilt):
        Quilt(x.word, x.tree)


def upper_triangular_to_diagonal(ring=QQ):
    """Category 2 with a 3-dim upper-triangular algebra mapping onto the
    2-dim diagonal algebra by killing the strictly upper part."""
    cat = FiniteCategory(["x", "y"], {"gamma": ("x", "y")}, {})
    mult_x = {(0, 0, 0): 1, (1, 1, 1): 1, (0, 2, 2): 1, (2, 1, 2): 1}
    mult_y = {(0, 0, 0): 1, (1, 1, 1): 1}
    matrices = {"gamma": {(0, 0): 1, (1, 1): 1}}
    return DiagramOfAlgebras(cat, {"x": 3, "y": 2},
                             {"x": mult_x, "y": mult_y}, matrices, ring)


def one_object_diagram(ring=QQ, dim=3):
    cat = FiniteCategory(["x"], {}, {})
    mult = {(0, 0, 0): 1, (1, 1, 1): 1, (0, 2, 2): 1, (2, 1, 2): 1}
    if dim == 2:
        mult = {(0, 0, 0): 1, (1, 1, 1): 1}
    return DiagramOfAlgebras(cat, {"x": dim}, {"x": mult}, {}, ring)


def random_cochain(dia, p, q, seed=0, density=1.0, only_nonid=False):
    rng = random.Random(seed)
    c = Cochain(dia)
    modulus = getattr(dia.ring, "p", 0)
    for tup in dia.category.nerve(p):
        if only_nonid and p >= 1 and any(dia.category.is_identity(m) for m in tup):
            continue
        xs = dia.category.tuple_objects(tup)
        dout, din = dia.dims[xs[0]], dia.dims[xs[-1]]
        for idx in itertools.product(range(dout), *[range(din)] * q):
            if rng.random() < density:
                v = rng.randrange(0, modulus) if modulus else rng.randrange(-2, 3)
                if v:
                    c._add((p, q), tup, idx, v)
    return c


@pytest.fixture(scope="session")
def cat2_Q():
    return upper_triangular_to_diagonal(QQ)


@pytest.fixture(scope="session")
def cat2_F2():
    return upper_triangular_to_diagonal(GF2)
