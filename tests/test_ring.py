"""Tests for truncated cohomology ring presentations."""

from __future__ import annotations

import gc
import random
import weakref
from fractions import Fraction
from functools import cache
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilform.catalog import (
    central_extension,
    example_contr,
    example_initial,
    free_abelian,
    heisenberg,
    heisenberg_betti_oracle,
    heisenberg_type,
)
from nilform.cdga import CDGA, NotACocycle, dict_coords, tensor
from nilform.formality import is_twostep
from nilform.gca import Algebra
from nilform.linalg import Echelon
from tracked_reference import _WalkEchelon
from nilform.ring import (
    CutoffError,
    GenerationVerdict,
    characteristic_subspace,
    class_symbol_algebra,
    from_cdga,
    generated_in_degree_one_upto,
)


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
        ba = r.multiply_coords(qb, b, qa, a)
        assert r.multiply_coords(qa, a, qb, b) == {j: sign * c for j, c in ba.items()}


def test_unit_and_scaling():
    r = from_cdga(heisenberg(2), 5)
    for q in range(6):
        for i in range(r.dim(q)):
            assert r.product_coords(0, 0, q, i) == {i: Fraction(1)}
            assert r.product_coords(q, i, 0, 0) == {i: Fraction(1)}
    v = {0: Fraction(1), 2: Fraction(-2), 4: Fraction(3)}
    assert r.multiply_coords(0, {0: Fraction(2)}, 2, v) == {j: 2 * c for j, c in v.items()}
    assert r.multiply_coords(0, {0: Fraction(1)}, 2, {}) == {}


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
    r = from_cdga(heisenberg(1), 3)
    v = generated_in_degree_one_upto(r, 2)
    assert not v.generated
    assert v.failure_degree == 2
    assert v.cokernel_dim == 2


def test_generation_heisenberg2_boundary():
    r = from_cdga(heisenberg(2), 5)
    assert generated_in_degree_one_upto(r, 2).generated
    v = generated_in_degree_one_upto(r, 3)
    assert not v.generated
    assert v.failure_degree == 3
    assert v.cokernel_dim == 5


def test_generation_free_abelian_always():
    r = from_cdga(free_abelian(["e1", "e2", "e3"]), 3)
    for m in range(1, 4):
        assert generated_in_degree_one_upto(r, m).generated


def test_generation_example_initial():
    r = from_cdga(example_initial(), 2)
    assert r.dim(2) == 9
    v = generated_in_degree_one_upto(r, 2)
    assert not v.generated
    assert v.cokernel_dim == 1


def test_generation_bound_validation():
    r = from_cdga(heisenberg(1), 2)
    with pytest.raises(CutoffError):
        generated_in_degree_one_upto(r, 3)
    with pytest.raises(CutoffError):
        generated_in_degree_one_upto(r, 0)
    assert generated_in_degree_one_upto(r, 1).generated


def test_characteristic_subspace_heisenberg():
    for n in (1, 2, 3):
        r = from_cdga(heisenberg(n), 2)
        k = characteristic_subspace(r)
        assert k.dim == 1
        # the kernel is spanned by the transgressed symplectic form
        (omega,) = k.basis
        expected = k.algebra.zero()
        for i in range(n):
            expected = expected + k.algebra.parse(f"x{i + 1}*y{i + 1}")
        assert omega.scale(omega.coefficient((0, 1)) ** -1) == expected


def test_characteristic_subspace_exterior_is_zero():
    r = from_cdga(free_abelian(["a", "b", "c", "d"]), 2)
    assert characteristic_subspace(r).dim == 0


def test_characteristic_subspace_example_initial():
    r = from_cdga(example_initial(), 2)
    k = characteristic_subspace(r)
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
    r = from_cdga(heisenberg(2), 2)
    alg = class_symbol_algebra(r)
    assert [g.name for g in alg.generators] == ["x1", "y1", "x2", "y2"]


def test_class_symbols_tensor_primes():
    t = tensor(heisenberg(1), heisenberg(1))
    r = from_cdga(t, 2)
    alg = class_symbol_algebra(r)
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
    alg = class_symbol_algebra(c)
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
            reps.add(image.reduce(z))
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
            residual, coeffs = classes.reduce(image.reduce(dict_coords(alg, v, q)))
            assert not residual and coeffs == dense
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


@pytest.mark.parametrize("seed", TOWER_SEEDS)
def test_three_step_towers_satisfy_duality_and_euler(seed):
    c = _three_step_tower(seed)
    top = len(c.algebra.generators)
    assert not is_twostep(c)
    dims = from_cdga(c, top).dims()
    assert dims[top] == 1
    assert dims == dims[::-1]
    assert sum((-1) ** q * b for q, b in enumerate(dims)) == 0


def _full_scan(ring, m):
    """The generation test without the full-rank stop: every product in every degree."""
    for q in range(2, m + 1):
        span = Echelon()
        for i in range(ring.dim(q - 1)):
            for j in range(ring.dim(1)):
                span.add(ring.product_coords(q - 1, i, 1, j))
        if span.rank < ring.dim(q):
            return GenerationVerdict(False, q, ring.dim(q) - span.rank)
    return GenerationVerdict(True)


@pytest.mark.parametrize(
    "build, top",
    [*REPRESENTATIVE_MODELS, pytest.param(example_initial, None, id="initial")],
)
def test_generation_verdicts_match_a_full_scan(build, top):
    c = build()
    r = from_cdga(c, c.algebra.top_degree() if top is None else top)
    for m in range(1, r.max_degree + 1):
        assert generated_in_degree_one_upto(r, m) == _full_scan(r, m)


@pytest.mark.parametrize("n", [3, 4])
def test_generation_stops_forming_products_at_full_rank(n):
    c = heisenberg(n)
    r = from_cdga(c, 2 * n + 1)
    v = generated_in_degree_one_upto(r, 2 * n + 1)
    assert v.failure_degree == n + 1
    scanned = sum(r.dim(1) * r.dim(q - 1) for q in range(2, n + 2))
    assert 0 < len(c._class_products) < scanned


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
    assert not c._class_products
    assert r.product_coords(1, 0, 1, 3) == {1: Fraction(1)}  # x1 * y2
    assert set(c._class_products) == {(1, 0, 1, 3)}


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


def test_presentations_of_one_cdga_share_structure_constants():
    c = heisenberg(2)
    small, large = from_cdga(c, 3), from_cdga(c, 5)
    prod = large.product_coords(1, 0, 2, 1)
    assert small.product_coords(1, 0, 2, 1) is prod
    large.product_coords(2, 0, 2, 1)
    # the cache is shared, the cutoff is still each presentation's own
    with pytest.raises(CutoffError):
        small.product_coords(2, 0, 2, 1)
    assert from_cdga(heisenberg(2), 3).product_coords(1, 0, 2, 1) is not prod


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
    left = r.multiply_coords(qa + qb, r.multiply_coords(qa, a, qb, b), qc, c)
    right = r.multiply_coords(qa, a, qb + qc, r.multiply_coords(qb, b, qc, c))
    assert left == right
