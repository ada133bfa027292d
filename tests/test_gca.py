"""Free graded-commutative algebra arithmetic."""

import random
from fractions import Fraction
from math import comb

import pytest

from nilform.gca import (
    Algebra,
    AlgebraError,
    DegreeError,
    Generator,
    InhomogeneousError,
    Multivector,
)


def exterior(*names: str) -> Algebra:
    return Algebra([(n, 1) for n in names])


@pytest.fixture
def e4() -> Algebra:
    return exterior("x1", "y1", "x2", "y2")


def test_generator_validation():
    with pytest.raises(DegreeError):
        Generator("x", 0)
    with pytest.raises(AlgebraError):
        Generator("2x", 1)
    with pytest.raises(AlgebraError):
        Algebra([("x", 1), ("x", 1)])


def test_wedge_anticommutes(e4):
    x1, y1 = e4.gen("x1"), e4.gen("y1")
    assert x1 * y1 == e4.parse("x1*y1")
    assert y1 * x1 == -e4.parse("x1*y1")
    assert (x1 * x1).is_zero()


def test_wedge_reorders_into_canonical_form():
    alg = exterior("x1", "x2", "y1", "y2", "z")
    left = alg.parse("x1*y1 + x2*z")
    right = alg.parse("x2*y2 + x1*z")
    assert left * right == alg.parse("x1*y1*x2*y2")
    # same product expanded by hand: x1y1x2y2 = -x1x2y1y2 in declaration order
    assert (left * right).coefficient((0, 1, 2, 3)) == -1


def test_scalars_and_linearity(e4):
    v = e4.parse("2*x1*y1 - 1/2*x2*y2")
    assert v.coefficient((0, 1)) == 2
    assert v.coefficient((2, 3)) == Fraction(-1, 2)
    assert (3 * v - v - v - v).is_zero()
    assert v * e4.one() == v
    assert (v * e4.zero()).is_zero()


def test_basis_counts_match_binomials(e4):
    for q in range(6):
        assert len(e4.basis(q)) == comb(4, q)
    assert sum(len(e4.basis(q)) for q in range(5)) == 2**4


def test_basis_examples():
    alg = exterior("x1", "y1", "x2", "y2")
    assert len(alg.basis(2)) == 6
    small = exterior("x1", "y1", "z")
    assert small.basis(3) == ((0, 1, 2),)
    six = exterior(*[f"e{i}" for i in range(6)])
    assert six.basis(7) == ()


def test_basis_is_lexicographic(e4):
    for q in range(5):
        monos = e4.basis(q)
        assert list(monos) == sorted(monos)


def test_even_generators_admit_powers():
    alg = Algebra([("c", 2), ("e", 3)])
    c, e = alg.gen("c"), alg.gen("e")
    assert not (c * c).is_zero()
    assert (e * e).is_zero()
    assert (c * e) == (e * c)
    assert alg.basis(4) == ((0, 0),)
    assert alg.basis(5) == ((0, 1),)
    assert alg.parse("c^3").coefficient((0, 0, 0)) == 1


def test_coordinates_round_trip(e4):
    v = e4.parse("x1*y1 - 3*x2*y2 + 1/5*x1*x2")
    coords = e4.coordinates(v, 2)
    assert e4.from_coordinates(2, coords) == v
    assert e4.coordinates(e4.zero(), 2) == [Fraction(0)] * 6


def test_coordinates_degree_mismatch(e4):
    with pytest.raises(DegreeError):
        e4.coordinates(e4.gen("x1"), 2)


def test_unknown_generator(e4):
    with pytest.raises(AlgebraError):
        e4.gen("w")
    with pytest.raises(AlgebraError):
        e4.parse("x1*w")


def test_algebra_mismatch(e4):
    other = exterior("x1", "y1")
    with pytest.raises(AlgebraError):
        e4.gen("x1") * other.gen("y1")


def test_degree_tagging(e4):
    assert e4.zero().degree is None
    assert e4.parse("x1*y1").degree == 2
    mixed = e4.gen("x1") + e4.parse("x1*y1")
    with pytest.raises(InhomogeneousError):
        _ = mixed.degree


def random_element(alg: Algebra, rng: random.Random, q: int) -> Multivector:
    coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in alg.basis(q)]
    return alg.from_coordinates(q, coords)


def test_associativity_property():
    rng = random.Random(7)
    alg = exterior("a", "b", "c", "d", "e")
    for _ in range(30):
        qs = [rng.randint(0, 2) for _ in range(3)]
        u, v, w = (random_element(alg, rng, q) for q in qs)
        assert (u * v) * w == u * (v * w)


def test_graded_commutativity_property():
    rng = random.Random(11)
    alg = Algebra([("a", 1), ("b", 1), ("c", 2), ("e", 3)])
    for _ in range(40):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        u, v = random_element(alg, rng, p), random_element(alg, rng, q)
        sign = -1 if (p % 2 and q % 2) else 1
        assert u * v == (v * u).scale(sign)


def test_squares_of_odd_elements_vanish_in_odd_degree():
    rng = random.Random(3)
    alg = exterior("a", "b", "c", "d", "e", "f")
    for _ in range(20):
        u = random_element(alg, rng, 1) + random_element(alg, rng, 3)
        odd = u
        assert (odd * odd).is_zero() or all(
            q % 2 == 0 for q in (odd * odd).degrees()
        )
        v = random_element(alg, rng, 1)
        assert (v * v).is_zero()


def test_parse_and_str_round_trip(e4):
    samples = ["x1*y1 + 2*x2*y2", "- x1 + 1/2*y1", "3", "0*x1"]
    for text in samples:
        v = e4.parse(text)
        assert e4.parse(str(v)) == v

