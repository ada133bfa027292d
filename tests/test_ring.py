"""Tests for truncated cohomology ring presentations."""

from __future__ import annotations

import gc
import json
import random
import weakref
from fractions import Fraction
from functools import cache
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilform import cli
from nilform.catalog import (
    central_extension,
    example_contr,
    example_initial,
    free_abelian,
    heisenberg,
    heisenberg_betti_oracle,
    heisenberg_type,
)
from nilform.cdga import CDGA, NotACocycle, apply_chain_map, coordinate_model, dict_coords, tensor
from nilform.formality import formality_report, is_twostep
from nilform.gca import Algebra
from nilform.linalg import Echelon
from tracked_reference import (
    _WalkEchelon,
    full_scan,
    multiply_coords,
    reference_product_coords,
    reference_wedge_table,
    residual,
)
from nilform.ring import (
    CutoffError,
    GenerationVerdict,
    characteristic_subspace,
    class_symbol_algebra,
    from_cdga,
    generated_in_degree_one_upto,
)

DATA = Path(__file__).resolve().parent / "data"


def test_dims_match_betti():
    r = from_cdga(heisenberg(1), 3)
    assert r.dims() == [1, 2, 2, 1]
    r2 = from_cdga(heisenberg(2), 5)
    assert r2.dims() == [heisenberg_betti_oracle(2, q) for q in range(6)]


def test_cutoff_enforced():
    r = from_cdga(heisenberg(1), 2)
    assert r.dim(2) == 2
    with pytest.raises(CutoffError):
        r.dim(3)
    with pytest.raises(CutoffError):
        r.product_coords(1, 0, 2, 0)
    with pytest.raises(ValueError):
        from_cdga(heisenberg(1), 0)


def test_a_cutoff_above_the_top_degree_builds_no_empty_degrees(monkeypatch):
    built = []
    real = CDGA.cohomology
    monkeypatch.setattr(CDGA, "cohomology", lambda c, q: built.append(q) or real(c, q))
    c = heisenberg(2)
    r = from_cdga(c, 10**6)
    # degrees 0..5, the top degree, and none of the zero ones above it
    assert built == list(range(6))
    assert r.dim(10**6) == r.dim(7) == 0 and r.basis(999_999).representatives == ()
    assert built == list(range(6)) + [10**6, 7, 999_999]
    # a product into a zero degree reads the basis it builds there
    assert r.product_coords(3, 0, 5, 0) == {} and built[-1] == 8
    # the cutoff is still enforced above the top degree
    with pytest.raises(CutoffError):
        r.dim(10**6 + 1)


def test_labels_are_representative_strings():
    r = from_cdga(heisenberg(2), 2)
    assert r.labels(1) == ("x1", "y1", "x2", "y2")
    assert all("*" in s for s in r.labels(2))
    assert r.labels(0) == ("1",)


def test_structure_constants_heisenberg2():
    # dz = x1y1 + x2y2, so [x1y1] = -[x2y2] while [x1x2] survives as is.
    r = from_cdga(heisenberg(2), 5)
    x1, y1, x2 = 0, 1, 2
    assert r.product_coords(1, x1, 1, x2) == {0: Fraction(1)}
    prod = r.product_coords(1, x1, 1, y1)
    (j,) = prod
    assert r.labels(2)[j] == "x2*y2"
    assert prod[j] == Fraction(-1)
    assert r.product_coords(1, x1, 1, x1) == {}


def test_graded_commutativity_of_classes():
    r = from_cdga(heisenberg(2), 5)
    rng = random.Random(5)
    for _ in range(20):
        qa = rng.choice([1, 2])
        qb = rng.choice([1, 2])
        a = {i: Fraction(k) for i in range(r.dim(qa)) if (k := rng.randint(-3, 3))}
        b = {i: Fraction(k) for i in range(r.dim(qb)) if (k := rng.randint(-3, 3))}
        sign = -1 if qa % 2 and qb % 2 else 1
        ba = multiply_coords(r, qb, b, qa, a)
        assert multiply_coords(r, qa, a, qb, b) == {j: sign * c for j, c in ba.items()}


def test_unit_and_scaling():
    r = from_cdga(heisenberg(2), 5)
    for q in range(6):
        for i in range(r.dim(q)):
            assert r.product_coords(0, 0, q, i) == {i: Fraction(1)}
            assert r.product_coords(q, i, 0, 0) == {i: Fraction(1)}
    v = {0: Fraction(1), 2: Fraction(-2), 4: Fraction(3)}
    assert multiply_coords(r, 0, {0: Fraction(2)}, 2, v) == {j: 2 * c for j, c in v.items()}
    assert multiply_coords(r, 0, {0: Fraction(1)}, 2, {}) == {}


def test_reduce_representatives_and_exact():
    c = heisenberg(1)
    r = from_cdga(c, 3)
    for q in range(4):
        for i in range(r.dim(q)):
            assert r.basis(q).coordinates(r.representative(q, i)) == {i: Fraction(1)}
    # the transgressed form is exact, so its class vanishes
    exact = c.algebra.parse("x1*y1")
    assert r.basis(2).coordinates(exact) == {}


def test_reduce_is_linear():
    c = heisenberg(2)
    r = from_cdga(c, 4)
    rng = random.Random(11)
    basis2 = c.algebra.basis(2)
    mat = c.differential_matrix(2)
    closed = [c.algebra.from_coordinates(2, [v.get(i, Fraction(0)) for i in range(len(basis2))])
              for v in mat.kernel()]
    coordinates = r.basis(2).coordinates
    for _ in range(10):
        u = rng.choice(closed)
        v = rng.choice(closed)
        a = Fraction(rng.randint(-4, 4))
        cu, cv = coordinates(u), coordinates(v)
        right = {j: x for j in sorted(set(cu) | set(cv)) if (x := a * cu.get(j, 0) + cv.get(j, 0))}
        assert coordinates(u.scale(a) + v) == right


def test_generation_heisenberg1_fails_immediately():
    v = generated_in_degree_one_upto(heisenberg(1), 2)
    assert not v.generated
    assert v.failure_degree == 2
    assert v.cokernel_dim == 2


def test_generation_heisenberg2_boundary():
    c = heisenberg(2)
    assert generated_in_degree_one_upto(c, 2).generated
    v = generated_in_degree_one_upto(c, 3)
    assert not v.generated
    assert v.failure_degree == 3
    assert v.cokernel_dim == 5


def test_generation_free_abelian_always():
    c = free_abelian(["e1", "e2", "e3"])
    for m in range(1, 4):
        assert generated_in_degree_one_upto(c, m).generated


def test_generation_example_initial():
    c = example_initial()
    assert from_cdga(c, 2).dim(2) == 9
    v = generated_in_degree_one_upto(c, 2)
    assert not v.generated
    assert v.cokernel_dim == 1


def test_generation_bound_validation():
    c = heisenberg(1)
    with pytest.raises(ValueError):
        generated_in_degree_one_upto(c, 0)
    assert generated_in_degree_one_upto(c, 1).generated
    # H^q = 0 above the top degree, so a bound beyond it is no error
    assert generated_in_degree_one_upto(free_abelian(["e1", "e2"]), 5).generated
    assert generated_in_degree_one_upto(c, 5) == GenerationVerdict(False, 2, 2)


@pytest.mark.parametrize("n, missed", [(1, 2), (2, 5), (3, 14), (4, 42), (5, 132), (6, 429)])
def test_generation_fails_at_the_closed_form_degree_of_heisenberg(n, missed):
    # Santharoubane: b_q = C(2n, q) - C(2n, q - 2) for q <= n, and H^(n+1),
    # dual to H^n, is all missed, since the products of degree-1 classes
    # vanish past degree n
    assert missed == comb(2 * n, n) - (comb(2 * n, n - 2) if n >= 2 else 0)
    assert generated_in_degree_one_upto(heisenberg(n), n + 1) == GenerationVerdict(False, n + 1, missed)


def test_characteristic_subspace_heisenberg():
    for n in (1, 2, 3):
        k = characteristic_subspace(heisenberg(n))
        assert k.dim == 1
        # the kernel is spanned by the transgressed symplectic form
        (omega,) = k.basis
        expected = k.algebra.zero()
        for i in range(n):
            expected = expected + k.algebra.parse(f"x{i + 1}*y{i + 1}")
        assert omega.scale(omega.coefficient((0, 1)) ** -1) == expected


def test_characteristic_subspace_exterior_is_zero():
    assert characteristic_subspace(free_abelian(["a", "b", "c", "d"])).dim == 0


def test_characteristic_subspace_example_initial():
    k = characteristic_subspace(example_initial())
    assert k.dim == 2
    # spans {x1y1 + x2z, x2y2 + x1z} in the class symbols
    alg = k.algebra
    expected = [alg.parse("x1*y1 + x2*z"), alg.parse("x2*y2 + x1*z")]
    span = Echelon()
    for v in k.basis:
        span.add({i: c for i, c in enumerate(alg.coordinates(v, 2)) if c})
    assert span.rank == 2
    for v in expected:
        assert span.contains({i: c for i, c in enumerate(alg.coordinates(v, 2)) if c})


def test_class_symbols_keep_generator_names():
    alg = class_symbol_algebra(heisenberg(2))
    assert [g.name for g in alg.generators] == ["x1", "y1", "x2", "y2"]


def test_class_symbols_tensor_primes():
    t = tensor(heisenberg(1), heisenberg(1))
    alg = class_symbol_algebra(t)
    assert [g.name for g in alg.generators] == ["x1", "y1", "x1'", "y1'"]


def test_class_symbols_fallback_names():
    # here ker d in degree 1 is spanned by a - b, u and v, so one H^1 label
    # is a difference rather than a plain name and symbols fall back
    c = from_cdga(
        CDGA(
            Algebra([("a", 1), ("b", 1), ("u", 1), ("v", 1)]),
            {"a": "u*v", "b": "u*v"},
        ),
        2,
    )
    labels = c.labels(1)
    assert any(not s.isidentifier() for s in labels)
    alg = class_symbol_algebra(c.source)
    assert [g.name for g in alg.generators] == ["a0", "a1", "a2"]


def _closed_form_betti(n, q):
    """Santharoubane: C(2n, q) - C(2n, q - 2) up to n, mirrored above."""
    if q > n:
        q = 2 * n + 1 - q
    return comb(2 * n, q) - (comb(2 * n, q - 2) if q >= 2 else 0)


@pytest.mark.parametrize("n", [5, 6])
def test_heisenberg_ladder_matches_closed_form_and_oracle(n):
    top = 2 * n + 1
    c = heisenberg(n)
    r = from_cdga(c, top)
    assert r.dims() == [_closed_form_betti(n, q) for q in range(top + 1)]
    assert r.dims() == [heisenberg_betti_oracle(n, q) for q in range(top + 1)]
    rng = random.Random(n)
    for q in range(top + 1):
        basis = r.basis(q)
        assert len(r.labels(q)) == basis.dim
        for i in rng.sample(range(basis.dim), min(2, basis.dim)):
            rep = r.representative(q, i)
            assert c.is_cocycle(rep)
            assert basis.reduction(rep) == [Fraction(int(j == i)) for j in range(basis.dim)]


def _three_step_tower(seed):
    """Seeded central extension: abelian base, then u's over it, then v1 over both.

    d(v1) is a closed 2-form that touches a u and is not exact, so the
    model is a 3-step nilpotent one.
    """
    rng = random.Random(seed)
    for _ in range(100):
        base = [f"e{i}" for i in range(1, rng.randint(3, 4) + 1)]
        pairs = [f"{a}*{b}" for k, a in enumerate(base) for b in base[k + 1 :]]
        first = [
            (f"u{k}", " + ".join(f"{rng.choice((-2, -1, 1, 2))}*{t}" for t in rng.sample(pairs, 2)))
            for k in range(1, rng.randint(1, 2) + 1)
        ]
        c = central_extension(base, first)
        alg = c.algebra
        touches_u = {j for j, m in enumerate(alg.basis(2)) if m[-1] >= len(base)}
        picks = [z for z in c.differential_matrix(2).kernel() if touches_u & set(z)]
        if not picks:
            continue
        vec = {}
        for z in rng.sample(picks, min(2, len(picks))):
            k = rng.choice((-1, 1, 2))
            for j, v in z.items():
                vec[j] = vec.get(j, 0) + k * v
        form = alg.from_coordinates(2, [vec.get(j, 0) for j in range(alg.dim(2))])
        if not form.is_zero() and c.is_coboundary(form) is None:
            return central_extension(base, first + [("v1", form)])
    raise RuntimeError("no 3-step tower drawn")


TOWER_SEEDS = (1, 2, 3, 5, 8, 13)

REPRESENTATIVE_MODELS = [
    *(pytest.param(lambda n=n: heisenberg(n), None, id=str(n)) for n in (1, 2, 3, 4)),
    *(pytest.param(lambda s=s: _three_step_tower(s), None, id=f"tower{s}") for s in TOWER_SEEDS),
    *(
        pytest.param(lambda p=p: example_contr(p), None, id=f"contr[{p}]")
        for p in ("0", "y1*y2", "x1*y2", "x1*x2 - 2*y1*z")
    ),
    pytest.param(lambda: heisenberg_type(2, 5), None, id="heisenberg_type(2,5)"),
    pytest.param(lambda: tensor(heisenberg(1), heisenberg(1)), None, id="h1xh1"),
    pytest.param(
        lambda: CDGA(Algebra([("c", 2), ("e", 3)]), {"e": "c^2"}), 9, id="even-generator"
    ),
]


@pytest.mark.parametrize("build, top", REPRESENTATIVE_MODELS)
def test_sparse_representatives_equal_their_dense_rows(build, top):
    c = build()
    alg = c.algebra
    if top is None:
        top = sum(g.degree for g in alg.generators)
    for q in range(top + 1):
        # the reference construction: kernel of d_q, reduced modulo the
        # image, then put in reduced echelon form
        size = alg.dim(q)
        image = Echelon()
        for col in c.differential_matrix(q - 1).cols:
            image.add(col)
        reps = Echelon()
        for z in c.differential_matrix(q).kernel():
            reps.add(residual(image, z))
        dense = [
            alg.from_coordinates(q, [Fraction(row.get(j, 0)) for j in range(size)])
            for row in reps.rows
        ]
        got = c.cohomology(q).representatives
        assert list(got) == dense
        assert [list(v.terms) for v in got] == [list(v.terms) for v in dense]
        assert [str(v) for v in got] == [str(v) for v in dense]

        index = alg.basis_index(q)
        coords = [{index[m]: v for m, v in rep.terms.items()} for rep in got]
        pivots = [min(x) for x in coords]
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for k, (rep, x) in enumerate(zip(got, coords)):
            others = set(pivots[:k] + pivots[k + 1 :]) | set(image.pivots)
            assert not others & set(x)
            assert c.is_cocycle(rep)
            assert all(v.denominator == 1 for v in x.values())
            assert gcd(*(int(v) for v in x.values())) == 1
            assert x[pivots[k]] > 0


@pytest.mark.parametrize("build, top", REPRESENTATIVE_MODELS)
def test_pivot_read_coordinates_match_a_tracked_echelon(build, top):
    c = build()
    alg = c.algebra
    if top is None:
        top = sum(g.degree for g in alg.generators)
    rng = random.Random(len(alg.generators) * 100 + top)
    for q in range(top + 1):
        basis = c.cohomology(q)
        size = alg.dim(q)
        image = Echelon()
        for col in c.differential_matrix(q - 1).cols:
            image.add(col)
        # the reference: coefficients over the representatives, tracked
        classes = _WalkEchelon(size, track=True)
        for rep in basis.representatives:
            classes.add(dict_coords(alg, rep, q))
        lower = alg.basis(q - 1) if q else ()
        for _ in range(4):
            want = {i: Fraction(k) for i in range(basis.dim) if (k := rng.randint(-3, 3))}
            dense = [want.get(i, Fraction(0)) for i in range(basis.dim)]
            v = basis.class_of(dense)
            for mono in rng.sample(lower, min(3, len(lower))):
                v = v + c.d(alg.monomial(mono)).scale(rng.choice((-2, -1, 1, 3)))
            left, coeffs = classes.reduce(residual(image, dict_coords(alg, v, q)))
            assert not left and coeffs == dense
            got = basis.coordinates(v)
            assert got == want and list(got) == sorted(want)
            assert basis.reduction(v) == dense
        open_cols = [j for j, col in enumerate(c.differential_matrix(q).cols) if col]
        if open_cols:
            v = basis.class_of([1] * basis.dim) + alg.monomial(alg.basis(q)[open_cols[-1]])
            with pytest.raises(NotACocycle):
                basis.coordinates(v)
            with pytest.raises(NotACocycle):
                basis.reduction(v)


def _seeded_contr(seed):
    """``example_contr(p)`` for a seeded integer 2-form p over the base generators."""
    rng = random.Random(seed)
    base = ("x1", "x2", "y1", "y2", "z")
    terms = [
        f"{rng.choice((-2, -1, 1, 2))}*{a}*{b}"
        for k, a in enumerate(base)
        for b in base[k + 1 :]
        if rng.random() < 0.3
    ]
    return example_contr(" + ".join(terms) or "0")


def _half_coefficient_model():
    """The model of ``tests/data/half_coefficient.json``: d has coefficients 1/2 and -1/2."""
    alg = Algebra([("x", 1), ("y", 1), ("z", 1), ("w", 1)])
    return CDGA(alg, {"z": "1/2*x*y", "w": "x*z - 1/2*y*z"})


STRUCTURE_MODELS = [
    *(pytest.param(lambda n=n: heisenberg(n), id=f"heisenberg({n})") for n in (1, 2, 3, 4)),
    *(
        pytest.param(lambda m=m, n=n: heisenberg_type(m, n), id=f"heisenberg_type({m},{n})")
        for m, n in ((1, 3), (2, 5), (2, 6), (3, 7))
    ),
    *(pytest.param(lambda s=s: _seeded_contr(s), id=f"contr{s}") for s in (3, 11, 19)),
    *(pytest.param(lambda s=s: _three_step_tower(s), id=f"tower{s}") for s in TOWER_SEEDS),
    pytest.param(_half_coefficient_model, id="half-coefficient"),
]


@pytest.mark.parametrize("build", STRUCTURE_MODELS)
def test_structure_constants_match_the_fraction_path(build):
    """Every product of two classes, and every entry of the wedge table: integer
    products of the representatives, one fraction-free reduction, against the
    product of the multivectors, read by ``coordinates`` or reduced modulo B^2,
    entry for entry and in the same order."""
    c = build()
    want = reference_wedge_table(c)
    assert list(c.wedge_table) == list(want)
    for pair, got in c.wedge_table.items():
        assert list(got.items()) == list(want[pair].items())
        assert all(type(v) is Fraction for v in got.values())
    top = c.algebra.top_degree()
    r = from_cdga(c, top)
    for qa in range(top + 1):
        for qb in range(top + 1 - qa):
            for ia in range(r.dim(qa)):
                for ib in range(r.dim(qb)):
                    got = r.product_coords(qa, ia, qb, ib)
                    want = reference_product_coords(r, qa, ia, qb, ib)
                    assert list(got.items()) == list(want.items())
                    assert all(type(v) is Fraction for v in got.values())


def test_differential_matrices_stay_integral_where_d_is():
    for c in (heisenberg(3), _three_step_tower(1), _seeded_contr(3)):
        for q in range(c.algebra.top_degree()):
            for col in c.differential_matrix(q).cols:
                assert all(type(v) is int for v in col.values())
    c = _half_coefficient_model()
    entries = [v for q in range(4) for col in c.differential_matrix(q).cols for v in col.values()]
    assert Fraction(1, 2) in entries and all(type(v) is Fraction for v in entries)
    assert [c.betti(q) for q in range(5)] == [1, 2, 2, 2, 1]
    assert [str(v) for v in c.cohomology(2).representatives] == ["2*x*w - y*w", "y*z"]


@pytest.mark.parametrize("seed", TOWER_SEEDS)
def test_three_step_towers_satisfy_duality_and_euler(seed):
    c = _three_step_tower(seed)
    top = len(c.algebra.generators)
    assert not is_twostep(c)
    dims = from_cdga(c, top).dims()
    assert dims[top] == 1
    assert dims == dims[::-1]
    assert sum((-1) ** q * b for q, b in enumerate(dims)) == 0


@pytest.mark.parametrize(
    "build, top",
    [*REPRESENTATIVE_MODELS, pytest.param(example_initial, None, id="initial")],
)
def test_generation_verdicts_match_a_full_scan(build, top):
    c = build()
    r = from_cdga(c, c.algebra.top_degree() if top is None else top)
    for m in range(1, r.max_degree + 1):
        assert generated_in_degree_one_upto(c, m) == full_scan(r, m)


NON_COORDINATE_CLOSED = [
    # Z^1 = <x, y, z - w>: no basis of it is a set of generators
    pytest.param(lambda: central_extension(["x", "y"], [("z", "x*y"), ("w", "x*y")]), id="dz=dw=xy"),
    # the same with a further generator over it; d(x*z) = -x*x*y = 0
    pytest.param(
        lambda: central_extension(["x", "y"], [("z", "x*y"), ("w", "x*y"), ("u", "x*z")]),
        id="dz=dw=xy,du=xz",
    ),
    # a 3-step extension declared out of order: x (z - w) takes two signs,
    # x z = -(z x) and x w, and d(s) meets its monomials in B^2
    pytest.param(
        lambda: CDGA(Algebra([(n, 1) for n in "suyzxw"]), {"z": "x*y", "w": "x*y", "u": "y*z", "s": "x*w - x*z - y*w"}),
        id="dz=dw=xy,du=yz,ds",
    ),
    # heisenberg(2) times a closed z - w: generated up to H^2, so the climb
    # reaches degree 3 with wedges of z - w
    pytest.param(
        lambda: central_extension(["x1", "y1", "x2", "y2"], [("z", "x1*y1 + x2*y2"), ("w", "x1*y1 + x2*y2")]),
        id="dz=dw=omega",
    ),
    # Z^1 = <x, y, 2z - w>: a representative with leading entry 2, so d' holds 1/2
    pytest.param(lambda: central_extension(["x", "y"], [("z", "x*y"), ("w", "2*x*y")]), id="dz=xy,dw=2xy"),
    pytest.param(
        lambda: central_extension(["x", "y"], [("z", "x*y"), ("w", "2*x*y"), ("u", "x*z")]),
        id="dz=xy,dw=2xy,du=xz",
    ),
]


@pytest.mark.parametrize("build", NON_COORDINATE_CLOSED)
def test_generation_climb_matches_the_ring_when_closed_forms_mix_generators(build):
    c = build()
    kernel = c.differential_matrix(1).kernel()
    assert any(len(z) > 1 for z in kernel)
    top = c.algebra.top_degree()
    r = from_cdga(c, top)
    for m in range(1, top + 1):
        assert generated_in_degree_one_upto(c, m) == full_scan(r, m)


def test_the_twostep_test_reads_the_coordinate_model():
    twostep = [is_twostep(p.values[0]()) for p in NON_COORDINATE_CLOSED]
    assert twostep == [True, False, False, True, True, False]


@pytest.mark.parametrize("build", NON_COORDINATE_CLOSED)
def test_the_coordinate_model_conjugates_d(build):
    # phi sends e_p to (e_p - n) / lead for each representative lead e_p + n,
    # fixes every other generator, and is a chain map from d to d'
    c = build()
    alg = c.algebra
    pivots, model = coordinate_model(c)
    assert model is not c and model.algebra is alg
    images = [alg.monomial((i,)) for i in range(len(alg.generators))]
    for z in c.cohomology(1).representatives:
        (p,), lead = min(z.terms.items())
        rest = z - alg.monomial((p,)).scale(lead)
        images[p] = (alg.monomial((p,)) - rest).scale(1 / lead)
    assert pivots == {min(z.terms)[0] for z in c.cohomology(1).representatives}
    for i, g in enumerate(alg.generators):
        assert model.d(images[i]) == apply_chain_map(images, c.d_generator(g.name), model)
    assert all(model.d_generator(alg.generators[p].name).is_zero() for p in pivots)
    for q in range(alg.top_degree() + 1):
        assert model.differential_matrix(q).rank() == c.differential_matrix(q).rank()


def test_a_model_whose_closed_forms_are_generators_is_its_own_coordinate_model():
    for c in (heisenberg(3), example_initial(), example_contr("y1*y2"), free_abelian(["e1"])):
        pivots, model = coordinate_model(c)
        assert model is c
        assert pivots == {i for z in c.cohomology(1).representatives for (i,) in z.terms}
    # only a representative with leading entry other than 1 gives d' a fraction
    c = NON_COORDINATE_CLOSED[-1].values[0]()
    assert str(coordinate_model(c)[1].d_generator("u")) == "1/2*x*z + 1/2*x*w"


def test_class_indices_are_checked():
    c = heisenberg(2)
    r = from_cdga(c, 5)
    for args in [(1, -1, 1, 0), (1, 4, 1, 0), (1, 0, 1, 4), (2, 5, 1, 0)]:
        with pytest.raises(IndexError, match=r"no class -?\d+ in degree \d"):
            r.product_coords(*args)
    with pytest.raises(IndexError, match="no class -1 in degree 1"):
        r.representative(1, -1)
    with pytest.raises(IndexError, match="no class 4 in degree 1"):
        r.representative(1, 4)
    assert r.product_coords(1, 0, 1, 3) == {1: Fraction(1)}  # x1 * y2


def test_dropped_ring_is_freed_without_the_cycle_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        c = heisenberg(3)
        r = from_cdga(c, 7)
        for q in range(8):
            r.labels(q)
        r.product_coords(1, 0, 2, 0)
        assert r.basis(3).reduction(r.representative(3, 1))[1] == 1
        ref_cdga, ref_alg = weakref.ref(c), weakref.ref(c.algebra)
        del c, r
        assert ref_cdga() is None
        assert ref_alg() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "build",
    [
        lambda: example_contr("0"),
        lambda: example_contr("y1*y2"),
        lambda: heisenberg(3),
        # a second CDGA, the coordinate model, is kept with these two
        lambda: cli._cdga_from_document(json.loads((DATA / "dependent_closed.json").read_text())),
        lambda: central_extension(["x", "y"], [("z", "x*y"), ("w", "2*x*y")]),
    ],
)
def test_a_dropped_report_model_is_freed_without_the_cycle_collector(build):
    # the cochain data the rules share sit on the CDGA, and its class bases
    # and coordinate model reach them without a reference back to it
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        c = build()
        formality_report(c, 3)
        assert c._matrix_cache and 1 in c._cohomology_cache and "_coordinates" in vars(c)
        ref_cdga, ref_alg = weakref.ref(c), weakref.ref(c.algebra)
        del c
        assert ref_cdga() is None
        assert ref_alg() is None
    finally:
        if was_enabled:
            gc.enable()


# -- ring-product properties ----------------------------------------------

PRODUCT_MODELS = {
    **{f"heisenberg({n})": (lambda n=n: heisenberg(n)) for n in (1, 2, 3)},
    "contr[0]": lambda: example_contr("0"),
    **{f"tower{s}": (lambda s=s: _three_step_tower(s)) for s in TOWER_SEEDS[:3]},
}

# derandomized and without an example database, so tier-1 stays deterministic
PRODUCT_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@cache
def _full_ring(name):
    c = PRODUCT_MODELS[name]()
    return from_cdga(c, c.algebra.top_degree())


def _draw_class(data, r, lo, hi):
    """A basis class (q, i) with lo <= q <= hi."""
    q = data.draw(st.integers(lo, hi))
    return q, data.draw(st.integers(0, r.dim(q) - 1))


@PRODUCT_SETTINGS
@given(st.data())
def test_class_products_are_graded_commutative(data):
    r = _full_ring(data.draw(st.sampled_from(sorted(PRODUCT_MODELS))))
    qa, ia = _draw_class(data, r, 0, r.max_degree)
    qb, ib = _draw_class(data, r, 0, r.max_degree - qa)
    # straight from the representatives, in the opposite order
    swapped = r.basis(qa + qb).coordinates(r.representative(qb, ib) * r.representative(qa, ia))
    sign = -1 if qa * qb % 2 else 1
    assert r.product_coords(qa, ia, qb, ib) == {j: sign * c for j, c in swapped.items()}


@PRODUCT_SETTINGS
@given(st.data())
def test_class_products_are_associative(data):
    r = _full_ring(data.draw(st.sampled_from(sorted(PRODUCT_MODELS))))
    qa, ia = _draw_class(data, r, 1, r.max_degree - 2)
    qb, ib = _draw_class(data, r, 1, r.max_degree - qa - 1)
    qc, ic = _draw_class(data, r, 1, r.max_degree - qa - qb)
    a, b, c = {ia: Fraction(1)}, {ib: Fraction(1)}, {ic: Fraction(1)}
    left = multiply_coords(r, qa + qb, multiply_coords(r, qa, a, qb, b), qc, c)
    right = multiply_coords(r, qa, a, qb + qc, multiply_coords(r, qb, b, qc, c))
    assert left == right
