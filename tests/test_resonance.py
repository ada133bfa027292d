"""Tests for resonance variety membership and the degree-1 decision."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nilform.catalog import example_contr, example_initial, free_abelian, heisenberg, heisenberg_type
from nilform.cdga import CDGA, tensor
from nilform.gca import Algebra
from nilform.linalg import _FAST_PRIME, Echelon, SparseMatrix, pivots_mod_p, rank_mod_p
from nilform.ring import (
    CharacteristicSubspace,
    CutoffError,
    characteristic_subspace,
    class_symbol_algebra,
    from_cdga,
)
from nilform.resonance import (
    EXACT_BOUND,
    decide_r11_trivial,
    find_resonance_point,
    in_resonance,
    kunneth_membership,
    mu_complex_dim,
    multiplication_complex,
    point_from_expression,
    r11_quadric_system,
)
from test_ring import TOWER_SEEDS, _three_step_tower
from tracked_reference import reference_mu_complex_dim, reference_pivots_mod_p


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
    alg = class_symbol_algebra(example_initial())
    basis = (alg.parse("x1*y1 + x2*z"), alg.parse("x2*y2 + x1*z"))
    sub = CharacteristicSubspace(alg, basis)
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
    sub = characteristic_subspace(heisenberg(2))
    system = r11_quadric_system(sub)
    assert sub.dim == 1
    # omega^2 = 2 x1y1x2y2 up to sign, so the single form is nonzero
    assert len(system.forms) == 1
    ((key, val),) = system.forms[0].items()
    assert key == (0, 0)
    assert abs(val) == 2


def test_decide_heisenberg1_witness():
    v = decide_r11_trivial(heisenberg(1))
    assert v.kind == "witness"
    w = v.witness
    assert w.alpha * w.beta == w.omega
    assert any(w.point)


def test_decide_heisenberg_higher_trivial():
    for n in (2, 3):
        v = decide_r11_trivial(heisenberg(n))
        assert v.kind == "trivial"


def test_decide_example_initial_trivial():
    v = decide_r11_trivial(example_initial())
    assert v.kind == "trivial"
    assert "2-dimensional" in v.detail


def test_decide_zero_subspace():
    v = decide_r11_trivial(free_abelian(["a", "b", "c"]))
    assert v.kind == "trivial"
    assert "zero" in v.detail


def test_decide_tensor_square_has_witness():
    t = tensor(heisenberg(1), heisenberg(1))
    r = from_cdga(t, 2)
    v = decide_r11_trivial(t)
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


def _seeded_quadric_systems():
    """(m, forms, moved): 40 random systems, each with two changes of variables."""
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randint(1, 4)
        pairs = [(a, b) for a in range(m) for b in range(a, m)]
        forms = [
            {p: Fraction(rng.choice((-2, -1, 1, 2)))
             for p in pairs if rng.random() < 0.4}
            for _ in range(rng.randint(1, m + 1))
        ]
        moved = []
        for _ in range(2):
            matrix = _invertible(rng, m)
            moved.append([_change_variables(f, matrix) for f in forms])
        yield m, forms, moved


def test_zero_locus_is_origin_random_systems_seeded():
    from nilform.resonance import _zero_locus_is_origin

    seen = set()
    for m, forms, moved in _seeded_quadric_systems():
        expected = _zero_locus_is_origin(forms, m)
        seen.add(expected)
        for other in moved:
            assert _zero_locus_is_origin(other, m) is expected
    # both answers occur, so the invariance is not checked on one side only
    assert seen == {True, False}


def _without_fp_ranks(monkeypatch):
    """Every F_p rank in resonance reads 0, a sound lower bound that certifies nothing.

    The Macaulay certificate then never fires, so the Groebner test decides
    alone, and mu_complex_dim takes every rank exactly.
    """
    monkeypatch.setattr("nilform.resonance.pivots_mod_p", lambda rows: set())


def _refuse_groebner(*args, **kwargs):
    raise AssertionError("Groebner ran on a system the F_p ranks decide")


def test_trivial_systems_never_reach_groebner(monkeypatch):
    from nilform.resonance import _zero_locus_is_origin

    systems = [(2, [{(0, 0): 1}, {(1, 1): 1}]), (2, [{(0, 0): 1, (1, 1): -1}, {(0, 1): 1}])]
    for m, forms, moved in _seeded_quadric_systems():
        systems += [(m, forms)] + [(m, other) for other in moved]
    with monkeypatch.context() as patch:
        _without_fp_ranks(patch)
        trivial = [(m, forms) for m, forms in systems if _zero_locus_is_origin(forms, m)]
    assert len(trivial) > 2
    monkeypatch.setattr("sympy.polys.groebnertools.groebner", _refuse_groebner)
    for m, forms in trivial:
        assert _zero_locus_is_origin(forms, m) is True
    for c in (heisenberg(2), heisenberg(3), heisenberg(4), example_initial()):
        assert decide_r11_trivial(c).kind == "trivial"


def test_degenerate_reduction_mod_p_falls_back_to_groebner(monkeypatch):
    from sympy.polys import groebnertools

    from nilform.resonance import _zero_locus_is_origin

    calls = []
    groebner = groebnertools.groebner

    def counted(*args, **kwargs):
        calls.append(args)
        return groebner(*args, **kwargs)

    monkeypatch.setattr(groebnertools, "groebner", counted)
    # x0^2 and x0*x1 + p*x1^2 vanish together only at 0 over Q, but mod p
    # the second form is x0*x1, which leaves the x1 axis
    degenerate = [{(0, 0): Fraction(1)}, {(0, 1): Fraction(1), (1, 1): Fraction(_FAST_PRIME)}]
    assert _zero_locus_is_origin(degenerate, 2) is True
    assert len(calls) == 1
    # a content or a denominator p is stripped from the form before the reduction
    for c in (Fraction(_FAST_PRIME), Fraction(1, _FAST_PRIME)):
        assert _zero_locus_is_origin([{(0, 0): Fraction(1)}, {(1, 1): c}], 2) is True
    assert len(calls) == 1


def _contr_form(rng):
    """Random integer 2-form over x1, x2, y1, y2, z."""
    base = ("x1", "x2", "y1", "y2", "z")
    terms = [
        f"{rng.choice((-2, -1, 1, 2))}*{a}*{b}"
        for i, a in enumerate(base)
        for b in base[i + 1 :]
        if rng.random() < 0.3
    ]
    return " + ".join(terms) or "0"


def test_r11_verdicts_match_the_groebner_test_alone(monkeypatch):
    rng = random.Random(1601)
    models = [example_contr(_contr_form(rng)) for _ in range(24)]
    models += [example_contr("0"), example_contr("y1*y2"), example_initial()]
    models += [heisenberg(n) for n in (1, 2, 3)]
    models += [heisenberg_type(1, 3), heisenberg_type(1, 4), heisenberg_type(2, 4)]
    verdicts = [decide_r11_trivial(c, seed=5) for c in models]
    _without_fp_ranks(monkeypatch)
    assert verdicts == [decide_r11_trivial(c, seed=5) for c in models]
    assert {v.kind for v in verdicts} == {"trivial", "witness"}


def test_find_resonance_point():
    r2 = from_cdga(heisenberg(2), 4)
    p = find_resonance_point(r2, 2)
    assert p is not None
    assert in_resonance(r2, p, 2)
    assert find_resonance_point(r2, 1, budget=30) is None
    rf = from_cdga(free_abelian(["a", "b"]), 2)
    assert find_resonance_point(rf, 1, budget=20) is None


def test_sampled_points_are_never_the_origin():
    # the origin lies in R^q whenever H^q != 0, and with b_1 <= 2 the random
    # phase draws it often (each coordinate is 0 with probability 1/13)
    mixed = CDGA(Algebra([("u", 2), ("a", 1)]), {})
    models = [(mixed, 4), (tensor(free_abelian(["t"]), mixed), 4)]
    models += [(free_abelian(["a"]), 1), (free_abelian(["a", "b"]), 2), (heisenberg(1), 3)]
    found = 0
    for c, top in models:
        r = from_cdga(c, top + 1)
        assert r.dim(1) <= 2
        for q in range(1, top + 1):
            for seed in range(40):
                point = find_resonance_point(r, q, seed=seed)
                if point is not None:
                    assert any(point) and in_resonance(r, point, q)
                    found += 1
    assert found


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


# -- the integer pencil against the Fraction build -------------------------

PENCIL_MODELS = {
    **{f"heisenberg({n})": (lambda n=n: heisenberg(n)) for n in (1, 2, 3, 4)},
    "h2xt": lambda: tensor(heisenberg(2), free_abelian(["t"])),
    "h1xh1": lambda: tensor(heisenberg(1), heisenberg(1)),
    "contr[0]": lambda: example_contr("0"),
    "contr[y1*y2]": lambda: example_contr("y1*y2"),
    **{f"tower{s}": (lambda s=s: _three_step_tower(s)) for s in TOWER_SEEDS[:2]},
}


def _full_ring(c):
    return from_cdga(c, c.algebra.top_degree())


def _seeded_points(ring, seed):
    """Rational points with denominators, points with zero coordinates, the zero point."""
    rng = random.Random(seed)
    b1 = ring.dim(1)
    points = [
        tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(b1))
        for _ in range(3)
    ]
    for _ in range(2):
        zeros = set(rng.sample(range(b1), rng.randint(1, b1 - 1)))
        points.append(
            tuple(
                Fraction(0) if i in zeros else Fraction(rng.randint(1, 4), rng.randint(1, 3))
                for i in range(b1)
            )
        )
    return points + [zero_point(ring)]


@pytest.mark.parametrize("name", sorted(PENCIL_MODELS))
def test_pencil_matches_the_fraction_build(name):
    r = _full_ring(PENCIL_MODELS[name]())
    points = _seeded_points(r, 29)
    # every entry is 0 mod p, so the F_p bound is b_q and only the exact rank can answer
    points.append(tuple(_FAST_PRIME * c for c in points[0]))
    for w in points:
        for q in range(r.max_degree):
            assert mu_complex_dim(r, w, q) == reference_mu_complex_dim(r, w, q), (w, q)


def test_point_resonant_only_mod_p_gets_the_exact_rank():
    # (p, 2p, 1, 3) reduces to (0, 0, 1, 3) mod p, a resonant point of
    # H(1) x H(1) in degree 1; over Q both factor points are nonzero, so
    # by Kunneth the point itself is not resonant there
    r = from_cdga(tensor(heisenberg(1), heisenberg(1)), 4)
    w = (Fraction(_FAST_PRIME), Fraction(2 * _FAST_PRIME), Fraction(1), Fraction(3))
    bound = r.dim(1) - sum(rank_mod_p(multiplication_complex(r, w, d)) for d in (0, 1))
    assert bound == 1
    assert reference_mu_complex_dim(r, w, 1) == 0
    assert mu_complex_dim(r, w, 1) == 0
    assert not in_resonance(r, w, 1)


def test_multiplication_rows_are_built_only_for_used_classes():
    r = from_cdga(heisenberg(2), 5)
    w = unit_point(r, 2)
    for q in range(4):
        mu_complex_dim(r, w, q)
    assert {i for _, i in r._pencil} == {2}


def test_a_point_needs_one_coordinate_per_degree_one_class():
    r = from_cdga(heisenberg(2), 5)
    for w in [(Fraction(1),), tuple(Fraction(1) for _ in range(7))]:
        with pytest.raises(ValueError, match="b_1 = 4"):
            mu_complex_dim(r, w, 1)
        # the check is in the map itself, not only behind the memo
        with pytest.raises(ValueError, match="b_1 = 4"):
            multiplication_complex(r, w, 1)
    assert mu_complex_dim(r, unit_point(r, 0), 1) == 0
    assert len(multiplication_complex(r, unit_point(r, 0), 1)) == 3


def test_a_sweep_forms_each_pencil_once(monkeypatch):
    import nilform.resonance as res

    calls = {"multiplication_complex": 0, "pivots_mod_p": 0}
    formed = []

    def counted(name):
        fn = getattr(res, name)

        def wrapper(*args):
            calls[name] += 1
            out = fn(*args)
            if name == "multiplication_complex":
                formed.append(len(out))
            return out

        return wrapper

    for name in calls:
        monkeypatch.setattr(res, name, counted(name))
    r = from_cdga(heisenberg(4), 5)
    rng = random.Random(41)
    for sweeps in (1, 2):
        w = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(r.dim(1)))
        assert [mu_complex_dim(r, w, q) for q in range(5)] == [0, 0, 0, 0, 14]
        assert calls == {"multiplication_complex": 5 * sweeps, "pivots_mod_p": 5 * sweeps}
        # map d is formed off the F_p pivots of map d-1: of the 1, 8, 27, 48
        # and 42 classes, only the rows that become pivots are formed
        assert formed[-5:] == [1, 7, 20, 28, 0]


def test_the_point_memo_never_answers_for_another_point():
    def sweep(r, w, degrees=range(5)):
        for q in degrees:
            assert mu_complex_dim(r, w, q) == reference_mu_complex_dim(r, w, q), (w, q)

    h = from_cdga(heisenberg(2), 5)
    a, b = unit_point(h, 0), zero_point(h)
    for w in (a, b, a):
        sweep(h, w)
    # a list mutated in place keeps its identity but not its value
    moving = list(a)
    sweep(h, moving)
    moving[:] = b
    sweep(h, moving)
    # equal values of another type reuse the memo
    for w in ((1, 0, 0, 0), (Fraction(2, 2), 0, Fraction(0), 0), b):
        sweep(h, w)
    # the Kunneth pattern: two presentations of one CDGA, queried in turn
    c = heisenberg(1)
    ra, rb = from_cdga(c, 3), from_cdga(c, 3)
    for w_a, w_b in [(unit_point(ra, 0), zero_point(rb)), (zero_point(ra), unit_point(rb, 1))]:
        for q in range(3):
            for i in range(q + 1):
                sweep(ra, w_a, [i])
                sweep(rb, w_b, [q - i])


# -- duality and the Heisenberg picture ------------------------------------

DUALITY_MODELS = {
    **{f"heisenberg({n})": (lambda n=n: heisenberg(n)) for n in (1, 2, 3)},
    "contr[0]": lambda: example_contr("0"),
    "heisenberg_type(2,5)": lambda: heisenberg_type(2, 5),
    **{f"tower{s}": (lambda s=s: _three_step_tower(s)) for s in TOWER_SEEDS[:3]},
}


@pytest.mark.parametrize("name", sorted(DUALITY_MODELS))
def test_resonance_is_poincare_dual(name):
    # multiplication by w is self-adjoint up to sign under the duality
    # pairing, so H^q(H, w) and H^(top-q)(H, w) have the same dimension
    r = _full_ring(DUALITY_MODELS[name]())
    top = r.max_degree
    for w in _seeded_points(r, 31):
        for q in range(1, top):
            assert mu_complex_dim(r, w, q) == mu_complex_dim(r, w, top - q), (w, q)


@pytest.mark.parametrize("n, mu", [(1, 1), (2, 2), (3, 5), (4, 14)])
def test_heisenberg_resonance_sits_in_the_middle_degrees(n, mu):
    r = from_cdga(heisenberg(n), 2 * n + 1)
    rng = random.Random(37 + n)
    for _ in range(4):
        w = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2 * n))
        if not any(w):
            continue
        dims = [mu_complex_dim(r, w, q) for q in range(2 * n + 1)]
        assert dims == [mu if q in (n, n + 1) else 0 for q in range(2 * n + 1)], w


# -- the F_p sandwich ------------------------------------------------------

SANDWICH_RINGS = {
    **{
        name: (lambda mk=mk: _full_ring(mk()))
        for name, mk in {**PENCIL_MODELS, **DUALITY_MODELS}.items()
    },
    # the AC05 tensor rings, cut below their top degree
    "h2xt@4": lambda: from_cdga(tensor(heisenberg(2), free_abelian(["t"])), 4),
    "h1xh1@4": lambda: from_cdga(tensor(heisenberg(1), heisenberg(1)), 4),
}


def _sandwich_points(r, name, seed):
    """Seeded points, and where the F_p ranks fall short: every entry a
    multiple of p, a coordinate 1/p, and (p, 2p, 1, 3) on H(1) x H(1)."""
    p = _FAST_PRIME
    points = _seeded_points(r, seed)
    # every entry is 0 mod p: each F_p rank is 0, and certifies only where b_q = 0
    points += [tuple(p * c for c in w) for w in points[:2]]
    points.append((Fraction(1, p),) + points[0][1:])
    if name.startswith("h1xh1"):
        points.append((Fraction(p), Fraction(2 * p), Fraction(1), Fraction(3)))
    return points


@pytest.mark.parametrize("name", sorted(SANDWICH_RINGS))
def test_rows_off_the_pivots_below_keep_both_ranks(name):
    r = SANDWICH_RINGS[name]()
    for w in _sandwich_points(r, name, 47):
        below = set()
        for d in range(r.max_degree):
            whole = multiplication_complex(r, w, d)
            off = multiplication_complex(r, w, d, below)
            assert rank_mod_p(off) == rank_mod_p(whole), (w, d)
            assert Echelon(off).rank == Echelon(whole).rank, (w, d)
            below = pivots_mod_p(whole)


@pytest.mark.parametrize("name", sorted(SANDWICH_RINGS))
def test_every_rank_the_memo_marks_exact_is_exact(name):
    r = SANDWICH_RINGS[name]()
    degrees = range(r.max_degree)
    for w in _sandwich_points(r, name, 43):
        want = [reference_mu_complex_dim(r, w, q) for q in degrees]
        whole = [multiplication_complex(r, w, d) for d in degrees]
        fp = [pivots_mod_p(rows) for rows in whole]
        exact = [Echelon(rows).rank for rows in whole]
        # a sweep up, a sweep down, and each degree alone on a fresh memo
        for order in (degrees, reversed(degrees), *([q] for q in degrees)):
            r.point_maps(())  # no point has this key, so the memo starts empty
            for q in order:
                assert mu_complex_dim(r, w, q) == want[q], (w, q)
            for d, (rows, pivots, rank) in r.point_maps(w).items():
                # the pivot columns are those of the row space, which the rows off the pivots below keep
                assert pivots == fp[d], (w, d)
                if rank is not None:
                    assert rank == Echelon(rows).rank == exact[d], (w, d)


def test_heisenberg_points_need_no_exact_rank(monkeypatch):
    import nilform.resonance as res

    calls = []
    real = res.rank_rows
    monkeypatch.setattr(res, "rank_rows", lambda rows: calls.append(rows) or real(rows))
    r = from_cdga(heisenberg(4), 5)
    rng = random.Random(53)
    points = [
        w for _ in range(16)
        if any(w := tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(8)))
    ]
    for w in points[:8]:
        assert [mu_complex_dim(r, w, q) for q in range(5)] == [0, 0, 0, 0, 14]
    # a single query at q = 4, as the CLI's --point makes: map 3's rank is not
    # full, but degree 3 is F_p-exact, so forming map 2 makes it exact
    for w in points[8:]:
        assert in_resonance(r, w, 4)
        assert sorted(r.point_maps(w)) == [2, 3, 4]
    assert calls == []


# -- the F_p kernel against its normalised reference -----------------------


def _checked_pivots(monkeypatch):
    """Check every `pivots_mod_p` call resonance makes against the reference,
    which scales each pivot row to 1; returns the pivot sets, in call order."""
    import nilform.resonance as res

    real, sets = res.pivots_mod_p, []

    def checked(rows):
        rows = list(rows)  # the Macaulay rows come as a generator
        got = real(rows)
        assert got == reference_pivots_mod_p(rows)
        sets.append(got)
        return got

    monkeypatch.setattr(res, "pivots_mod_p", checked)
    return sets


SWEEP_RINGS = {
    "heisenberg(4)@5": lambda: from_cdga(heisenberg(4), 5),
    "h2xt@4": SANDWICH_RINGS["h2xt@4"],
    "h1xh1@4": SANDWICH_RINGS["h1xh1@4"],
}


@pytest.mark.parametrize("name", sorted(SWEEP_RINGS))
def test_every_pencil_pivot_set_equals_the_normalised_one(monkeypatch, name):
    r = SWEEP_RINGS[name]()
    degrees = range(min(r.max_degree, 5))
    sets = _checked_pivots(monkeypatch)
    for w in _sandwich_points(r, name, 61):
        # a sweep up, which forms map d off the pivots of map d-1, then each degree alone
        dims = [mu_complex_dim(r, w, q) for q in degrees]
        for q in degrees:
            r.point_maps(())  # no point has this key, so the memo starts empty
            assert mu_complex_dim(r, w, q) == dims[q], (w, q)
    # pivot sets that are not the first columns of their map occur
    assert len(sets) > 50 and any(s and max(s) >= len(s) for s in sets)


def test_the_macaulay_certificate_decides_as_with_normalised_pivot_rows(monkeypatch):
    from nilform.resonance import _zero_locus_is_origin
    from test_formality import _formality_mix_models

    catalog = [heisenberg(n) for n in (1, 2, 3, 4)] + [
        heisenberg_type(1, 3),
        heisenberg_type(2, 5),
        example_initial(),
        *(example_contr(p) for p in ("0", "y1*y2", "x1*y2", "x1*x2 - 2*y1*z")),
    ]
    systems = []
    for c in catalog + _formality_mix_models(seeds=(3,)):
        sub = characteristic_subspace(c)
        if 0 < sub.dim <= EXACT_BOUND:
            systems.append((sub.dim, r11_quadric_system(sub).forms))
    # those are 1- and 2-dimensional; the seeded systems reach m = 4
    for m, forms, moved in _seeded_quadric_systems():
        systems += [(m, forms)] + [(m, other) for other in moved]

    def decide():
        return [_zero_locus_is_origin(forms, m) for m, forms in systems]

    with monkeypatch.context() as patch:
        patch.setattr("nilform.resonance.pivots_mod_p", reference_pivots_mod_p)
        want = decide()
    sets = _checked_pivots(monkeypatch)
    assert decide() == want
    # both answers occur, and the certificate ranked a Macaulay matrix
    assert set(want) == {True, False} and sets
