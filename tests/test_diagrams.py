import itertools
import random

import pytest

from quiltops.rings import QQ, GF2, GF
from quiltops.diagrams import (NonAssociative, NotFunctorial, NotHomomorphism,
                               BadShape, DiagramSyntaxError, parse_diagram, format_diagram, category_two_diagram)

from conftest import one_object_diagram, upper_triangular_to_diagonal

DIAGRAM_TEXT = """
ring Q
object x 2
object y 2
morphism gamma x y
mult x 1 1 1 1
mult x 2 2 2 1
mult y 1 1 1 1
mult y 2 2 2 1
matrix gamma 1 0 0 1
"""


def test_parse_and_validate():
    d = parse_diagram(DIAGRAM_TEXT)
    assert d.dims == {"x": 2, "y": 2}
    assert d.category.compose("gamma", "id_x") == "gamma"
    assert d.category.compose("id_y", "gamma") == "gamma"


def test_identities_are_known_by_name():
    # an arrow whose name starts "id_" is not an identity unless it names one
    d = parse_diagram(DIAGRAM_TEXT.replace("gamma", "id_q"))
    cat = d.category
    assert not cat.is_identity("id_q") and cat.is_identity("id_x")
    assert cat.compose("id_y", "id_q") == cat.compose("id_q", "id_x") == "id_q"
    assert d.matrix("id_y") == {(0, 0): 1, (1, 1): 1}


@pytest.mark.parametrize("line, first", [
    ("ring F2", 2), ("object x 1", 3), ("morphism gamma y x", 5),
    ("compose gamma id_x gamma", 11), ("mult x 1 1 1 0", 6),
    ("matrix gamma 0 0 0 0", 10)])
def test_repeated_declaration_is_refused(line, first):
    # a repeat must not replace the first declaration, nor a late object
    # line wipe that object's structure constants
    text = DIAGRAM_TEXT + "compose gamma id_x gamma\n" + line + "\n"
    with pytest.raises(DiagramSyntaxError, match=r"^line 12: %r repeats the %s of line %d$"
                       % (line, line.split()[0], first)):
        parse_diagram(text)


def test_one_object_trivial():
    d = parse_diagram("ring Q\nobject x 1\nmult x 1 1 1 1\n")
    assert d.dims["x"] == 1


def test_non_homomorphism_detected():
    bad = DIAGRAM_TEXT.replace("matrix gamma 1 0 0 1", "matrix gamma 1 1 0 1")
    with pytest.raises(NotHomomorphism):
        parse_diagram(bad)


def test_non_associative_detected():
    bad = DIAGRAM_TEXT + "mult x 1 2 2 1\n"
    with pytest.raises(NonAssociative):
        parse_diagram(bad)


def test_not_functorial_detected():
    text = """
ring Q
object x 1
object y 1
object z 1
morphism f x y
morphism g y z
morphism h x z
compose g f h
mult x 1 1 1 1
mult y 1 1 1 1
mult z 1 1 1 1
matrix f 1
matrix g 1
matrix h 0
"""
    with pytest.raises((NotFunctorial, NotHomomorphism)):
        parse_diagram(text)


def test_bad_shape_detected():
    bad = DIAGRAM_TEXT.replace("matrix gamma 1 0 0 1", "matrix gamma 1 0 0")
    with pytest.raises(BadShape):
        parse_diagram(bad)


MATRIX_ALGEBRA = """
ring Q
object a 4
object b 4
morphism gamma a b
# basis E11, E12, E21, E22 of the 2x2 matrix algebra, Eij Ekl = d_jk Eil
mult a 1 1 1 1
mult a 1 2 2 1
mult a 2 3 1 1
mult a 2 4 2 1
mult a 3 1 3 1
mult a 3 2 4 1
mult a 4 3 3 1
mult a 4 4 4 1
mult b 1 1 1 1
mult b 1 2 2 1
mult b 2 3 1 1
mult b 2 4 2 1
mult b 3 1 3 1
mult b 3 2 4 1
mult b 4 3 3 1
mult b 4 4 4 1
matrix gamma 1 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1
"""


def test_two_by_two_matrix_algebras():
    d = parse_diagram(MATRIX_ALGEBRA)
    assert d.dims == {"a": 4, "b": 4}
    # transposition is linear but not multiplicative
    swapped = MATRIX_ALGEBRA.replace(
        "matrix gamma 1 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1",
        "matrix gamma 1 0 0 0  0 0 1 0  0 1 0 0  0 0 0 1")
    with pytest.raises(NotHomomorphism):
        parse_diagram(swapped)


def test_ring_f2():
    d = parse_diagram(DIAGRAM_TEXT.replace("ring Q", "ring F2"))
    assert d.ring == GF2


def test_nerve():
    d = category_two_diagram(QQ, 2)
    cat = d.category
    assert sorted(cat.nerve(0)) == [("x",), ("y",)]
    assert len(cat.nerve(1)) == 3
    assert len(cat.nerve(2)) == 4
    # paths compose correctly
    tup = ("id_y", "gamma")
    assert cat.path(tup, 0, 2) == "gamma"
    assert cat.path(tup, 1, 1) == "id_y"
    assert cat.path(tup, 2, 2) == "id_x"


THREE_OBJECTS = """
ring Q
object a 1
object b 1
object c 1
morphism f a b
morphism g b c
morphism h a c
compose g f h
mult a 1 1 1 1
mult b 1 1 1 1
mult c 1 1 1 1
matrix f 1
matrix g 1
matrix h 1
"""


def test_composition_table_three_objects():
    d = parse_diagram(THREE_OBJECTS)
    assert d.category.compose("g", "f") == "h"
    assert len(d.category.nerve(2)) > 0


# The product loops `validate` ran before `DiagramOfAlgebras.multiply`,
# kept as the reference for it: e_i e_j read off the structure constants,
# and the product of two vectors summed over every pair of their entries.

def oracle_multiply_basis(dia, x, i, j):
    out = {}
    for (a, b, k), v in dia.mult[x].items():
        if a == i and b == j:
            out[k] = v
    return out


def oracle_product(dia, x, u, v):
    ring = dia.ring
    out = {}
    for a, s in u.items():
        for b, t in v.items():
            for (p, q, k), w in dia.mult[x].items():
                if p == a and q == b:
                    out[k] = ring.add(out.get(k, ring.zero),
                                      ring.mul(ring.mul(s, t), w))
    return {k: c for k, c in out.items() if not ring.is_zero(c)}


SUITE_DIAGRAMS = {
    "uptri-QQ": upper_triangular_to_diagonal(QQ), "uptri-GF2": upper_triangular_to_diagonal(GF2),
    "uptri-GF3": upper_triangular_to_diagonal(GF(3)), "one-object": one_object_diagram(QQ, 3),
    "diag-GF2": category_two_diagram(GF2, 3), "2x2-matrices": parse_diagram(MATRIX_ALGEBRA),
}


@pytest.mark.parametrize("dia", SUITE_DIAGRAMS.values(), ids=SUITE_DIAGRAMS.keys())
def test_multiply_matches_oracle(dia):
    ring = dia.ring
    rng = random.Random(3)
    for x in dia.category.objects:
        d = dia.dims[x]
        for i, j in itertools.product(range(d), repeat=2):
            assert (dia.multiply(x, {i: ring.one}, {j: ring.one})
                    == oracle_multiply_basis(dia, x, i, j))
        for _ in range(40):
            u, v = ({i: ring.coerce(rng.randrange(1, 4)) for i in range(d)
                     if rng.random() < 0.6} for _ in range(2))
            u = {i: c for i, c in u.items() if not ring.is_zero(c)}
            v = {i: c for i, c in v.items() if not ring.is_zero(c)}
            assert dia.multiply(x, u, v) == oracle_product(dia, x, u, v)


@pytest.mark.parametrize("dia", [*SUITE_DIAGRAMS.values(), parse_diagram(DIAGRAM_TEXT),
                                 parse_diagram(DIAGRAM_TEXT.replace("gamma", "id_q")),
                                 parse_diagram(THREE_OBJECTS), category_two_diagram(QQ, 2),
                                 one_object_diagram(GF2, 2)],
                         ids=[*SUITE_DIAGRAMS, "two-objects", "arrow-named-id_q",
                              "three-objects", "diag-QQ", "one-object-GF2"])
def test_format_round_trip(dia):
    # format(parse(format(d))) == format(d), and the reparsed diagram has
    # the same ring, category, algebras and matrices
    text = format_diagram(dia)
    again = parse_diagram(text)
    assert format_diagram(again) == text
    assert (again.ring, again.dims, again.mult, again.matrices) == (
        dia.ring, dia.dims, dia.mult, dia.matrices)
    assert (again.category.objects, again.category.morphisms, again.category._table) == (
        dia.category.objects, dia.category.morphisms, dia.category._table)


def test_format_writes_the_documented_lines():
    d = parse_diagram(THREE_OBJECTS.replace("ring Q", "ring F5").replace("matrix h 1", "matrix h 6"))
    assert format_diagram(d) == (
        "ring F5\nobject a 1\nobject b 1\nobject c 1\nmorphism f a b\nmorphism g b c\n"
        "morphism h a c\ncompose g f h\nmult a 1 1 1 1\nmult b 1 1 1 1\nmult c 1 1 1 1\n"
        "matrix f 1\nmatrix g 1\nmatrix h 1\n")
    assert format_diagram(parse_diagram(MATRIX_ALGEBRA)).splitlines()[-1] == (
        "matrix gamma 1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1")
    half = parse_diagram("ring Q\nobject x 1\nmult x 1 1 1 -1/2\n")
    assert format_diagram(half) == "ring Q\nobject x 1\nmult x 1 1 1 -1/2\n"
