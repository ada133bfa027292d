"""Tests for resonance variety membership and the degree-1 decision."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nilform.catalog import example_initial, free_abelian, heisenberg
from nilform.cdga import tensor
from nilform.linalg import SparseMatrix
from nilform.ring import (
    CharacteristicSubspace,
    CutoffError,
    characteristic_subspace,
    class_symbol_algebra,
    from_cdga,
)
from nilform.resonance import (
    decide_r11_trivial,
    find_resonance_point,
    in_resonance,
    kunneth_membership,
    mu_complex_dim,
    point_from_expression,
    r11_quadric_system,
)


def unit_point(ring, index):
    return tuple(
        Fraction(1 if i == index else 0) for i in range(ring.dim(1))
    )


def zero_point(ring):
    return tuple(Fraction(0) for _ in range(ring.dim(1)))


def test_zero_point_gives_betti_numbers():
    r = from_cdga(heisenberg(2), 4)
    w = zero_point(r)
    for q in range(4):
        assert mu_complex_dim(r, w, q) == r.dim(q)


def test_heisenberg1_x1_is_resonant():
    r = from_cdga(heisenberg(1), 3)
    w = unit_point(r, 0)
    assert mu_complex_dim(r, w, 1) == 1
    assert in_resonance(r, w, 1)


def test_heisenberg2_x1_resonant_only_from_degree_two():
    r = from_cdga(heisenberg(2), 5)
    w = unit_point(r, 0)
    assert mu_complex_dim(r, w, 1) == 0
    assert not in_resonance(r, w, 1)
    assert in_resonance(r, w, 2)


def test_heisenberg3_membership_profile():
    r = from_cdga(heisenberg(3), 4)
    w = unit_point(r, 0)
    assert not in_resonance(r, w, 1)
    assert not in_resonance(r, w, 2)
    assert in_resonance(r, w, 3)


def test_resonance_varieties_are_cones():
    r = from_cdga(heisenberg(2), 4)
    rng = random.Random(3)
    for _ in range(15):
        w = tuple(Fraction(rng.randint(-3, 3)) for _ in range(r.dim(1)))
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([-1, 1])
        for q in (1, 2):
            assert mu_complex_dim(r, w, q) == mu_complex_dim(r, tuple(c * x for x in w), q)


def test_depth_counts_cohomology_dimension():
    r = from_cdga(heisenberg(1), 3)
    w = zero_point(r)
    assert in_resonance(r, w, 1, k=2)
    assert not in_resonance(r, unit_point(r, 0), 1, k=2)
    with pytest.raises(ValueError):
        in_resonance(r, w, 1, k=0)


def test_point_parsers():
    r = from_cdga(heisenberg(2), 2)
    assert point_from_expression(r, "x1 + 2*y2") == (
        Fraction(1), Fraction(0), Fraction(0), Fraction(2),
    )
    assert point_from_expression(r, "0") == zero_point(r)
    with pytest.raises(ValueError):
        point_from_expression(r, "x1*y1")


def test_quadric_system_example_initial():
    # hand expansion over the subspace basis {x1y1 + x2z, x2y2 + x1z}:
    # with generator order (x1, x2, y1, y2, z) the squares and the cross
    # term give exactly one degree-4 monomial each
    r = from_cdga(example_initial(), 2)
    alg = class_symbol_algebra(r)
    basis = (alg.parse("x1*y1 + x2*z"), alg.parse("x2*y2 + x1*z"))
    sub = CharacteristicSubspace(r, alg, basis)
    system = r11_quadric_system(sub)
    assert system.monomials == ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4))
    assert system.forms == (
        {(0, 1): Fraction(-2)},
        {(0, 0): Fraction(-2)},
        {(1, 1): Fraction(2)},
    )
    # same zero locus as {2c1^2, 2c1c2, 2c2^2}: only the origin
    assert system.value(0, (Fraction(1), Fraction(1))) == Fraction(-2)
    assert system.value(1, (Fraction(3), Fraction(0))) == Fraction(-18)


def test_quadric_system_heisenberg2_square_survives():
    r = from_cdga(heisenberg(2), 2)
    sub = characteristic_subspace(r)
    system = r11_quadric_system(sub)
    assert sub.dim == 1
    # omega^2 = 2 x1y1x2y2 up to sign, so the single form is nonzero
    assert len(system.forms) == 1
    ((key, val),) = system.forms[0].items()
    assert key == (0, 0)
    assert abs(val) == 2


def test_decide_heisenberg1_witness():
    v = decide_r11_trivial(from_cdga(heisenberg(1), 2))
    assert v.kind == "witness"
    w = v.witness
    assert w.alpha * w.beta == w.omega
    assert any(w.point)


def test_decide_heisenberg_higher_trivial():
    for n in (2, 3):
        v = decide_r11_trivial(from_cdga(heisenberg(n), 2))
        assert v.kind == "trivial"


def test_decide_example_initial_trivial():
    v = decide_r11_trivial(from_cdga(example_initial(), 2))
    assert v.kind == "trivial"
    assert "2-dimensional" in v.detail


def test_decide_zero_subspace():
    v = decide_r11_trivial(from_cdga(free_abelian(["a", "b", "c"]), 2))
    assert v.kind == "trivial"
    assert "zero" in v.detail


def test_decide_tensor_square_has_witness():
    t = tensor(heisenberg(1), heisenberg(1))
    r = from_cdga(t, 2)
    v = decide_r11_trivial(r)
    assert v.kind == "witness"
    assert in_resonance(r, v.witness.point, 1)


def _change_variables(form, matrix):
    """The quadric form at c = matrix * c', again upper triangular in c'."""
    out = {}
    for (a, b), c in form.items():
        for j, x in enumerate(matrix[a]):
            for k, y in enumerate(matrix[b]):
                if x and y:
                    key = (min(j, k), max(j, k))
                    out[key] = out.get(key, Fraction(0)) + c * x * y
    return {key: c for key, c in out.items() if c}


def _invertible(rng, m):
    while True:
        rows = [
            [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m)]
            for _ in range(m)
        ]
        cols = [{i: rows[i][j] for i in range(m) if rows[i][j]} for j in range(m)]
        if SparseMatrix(m, m, cols).rank() == m:
            return rows


@pytest.mark.parametrize(
    "forms, expected",
    [
        ([{(0, 0): 1}, {(1, 1): 1}], True),
        ([{(0, 1): 1}], False),
        ([{(0, 0): 1, (1, 1): -1}, {(0, 1): 1}], True),
    ],
    ids=["squares", "product", "difference-and-product"],
)
def test_zero_locus_is_origin_invariant_under_change_of_variables(forms, expected):
    from nilform.resonance import _zero_locus_is_origin

    rng = random.Random(17)
    forms = [{key: Fraction(c) for key, c in f.items()} for f in forms]
    assert _zero_locus_is_origin(forms, 2) is expected
    for _ in range(5):
        matrix = _invertible(rng, 2)
        moved = [_change_variables(f, matrix) for f in forms]
        assert _zero_locus_is_origin(moved, 2) is expected


def test_zero_locus_is_origin_random_systems_seeded():
    from nilform.resonance import _zero_locus_is_origin

    rng = random.Random(23)
    seen = set()
    for _ in range(40):
        m = rng.randint(1, 4)
        pairs = [(a, b) for a in range(m) for b in range(a, m)]
        forms = [
            {p: Fraction(rng.choice((-2, -1, 1, 2)))
             for p in pairs if rng.random() < 0.4}
            for _ in range(rng.randint(1, m + 1))
        ]
        expected = _zero_locus_is_origin(forms, m)
        seen.add(expected)
        for _ in range(2):
            matrix = _invertible(rng, m)
            moved = [_change_variables(f, matrix) for f in forms]
            assert _zero_locus_is_origin(moved, m) is expected
    # both answers occur, so the invariance is not checked on one side only
    assert seen == {True, False}


def test_find_resonance_point():
    r2 = from_cdga(heisenberg(2), 4)
    p = find_resonance_point(r2, 2)
    assert p is not None
    assert in_resonance(r2, p, 2)
    assert find_resonance_point(r2, 1, budget=30) is None
    rf = from_cdga(free_abelian(["a", "b"]), 2)
    assert find_resonance_point(rf, 1, budget=20) is None


def combined_point(ring_ab, ring_a, ring_b, w_a, w_b):
    """Coordinates of (w_a, w_b) in the tensor ring, matched by label."""
    values = {}
    for lab, c in zip(ring_a.labels(1), w_a):
        values[lab] = c
    for lab, c in zip(ring_b.labels(1), w_b):
        if lab in values:
            lab = lab + "'"
        values[lab] = c
    return tuple(values.get(lab, Fraction(0)) for lab in ring_ab.labels(1))


def test_kunneth_membership_against_direct():
    a = heisenberg(1)
    b = free_abelian(["t"])
    ra = from_cdga(a, 3)
    rb = from_cdga(b, 1)
    rab = from_cdga(tensor(a, b), 4)
    rng = random.Random(9)
    for _ in range(25):
        w_a = tuple(Fraction(rng.randint(-2, 2)) for _ in range(ra.dim(1)))
        w_b = tuple(Fraction(rng.randint(-2, 2)) for _ in range(rb.dim(1)))
        w = combined_point(rab, ra, rb, w_a, w_b)
        for q in range(4):
            assert kunneth_membership(ra, rb, w_a, w_b, q) == in_resonance(rab, w, q)


def test_kunneth_additivity_of_dimensions():
    a = heisenberg(1)
    b = free_abelian(["t"])
    ra = from_cdga(a, 3)
    rb = from_cdga(b, 1)
    rab = from_cdga(tensor(a, b), 4)
    rng = random.Random(21)
    from nilform.resonance import _factor_complex_dim

    for _ in range(10):
        w_a = tuple(Fraction(rng.randint(-2, 2)) for _ in range(2))
        w_b = (Fraction(rng.randint(-2, 2)),)
        w = combined_point(rab, ra, rb, w_a, w_b)
        for q in range(4):
            total = sum(
                _factor_complex_dim(ra, w_a, i) * _factor_complex_dim(rb, w_b, q - i)
                for i in range(q + 1)
            )
            assert mu_complex_dim(rab, w, q) == total


def test_kunneth_cutoff_raises_when_blind():
    a = heisenberg(1)
    ra = from_cdga(a, 1)
    rb = from_cdga(free_abelian(["t"]), 1)
    w_a = (Fraction(1), Fraction(0))
    w_b = (Fraction(1),)
    with pytest.raises(CutoffError):
        kunneth_membership(ra, rb, w_a, w_b, 1)


def test_kunneth_depth_restriction():
    ra = from_cdga(heisenberg(1), 3)
    rb = from_cdga(free_abelian(["t"]), 1)
    with pytest.raises(ValueError):
        kunneth_membership(ra, rb, zero_point(ra), zero_point(rb), 1, k=2)
