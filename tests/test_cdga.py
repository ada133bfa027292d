"""Differential graded algebra validation, cohomology and extensions."""

import json
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilform import cli
from nilform.cdga import CDGA, NotACocycle, NotADifferential, dict_coords, hirsch_extend, tensor
from nilform.gca import Algebra, DegreeError, Generator
from nilform.catalog import (
    example_contr,
    free_abelian,
    heisenberg,
    heisenberg_betti_oracle,
)
from nilform.linalg import Echelon
from nilform.ring import from_cdga
from test_formality import DATA, TOP_CLASS_MODELS, _formality_mix_models, _model_builders
from test_ring import REPRESENTATIVE_MODELS, TOWER_SEEDS, _three_step_tower
from tracked_reference import _WalkEchelon


def exterior(*names):
    return Algebra([(n, 1) for n in names])


def test_validate_accepts_heisenberg():
    c = heisenberg(1)
    assert c.validate() is c
    assert c.is_minimal
    z = c.algebra.gen("z")
    assert c.d(z) == c.algebra.parse("x1*y1")
    assert c.d(c.d(z)).is_zero()


def test_validate_rejects_degree_drop():
    alg = exterior("x", "z")
    with pytest.raises(DegreeError):
        CDGA(alg, {"z": "x"})


def test_validate_rejects_broken_square():
    alg = exterior("a", "b", "c", "f", "g")
    with pytest.raises(NotADifferential) as err:
        CDGA(alg, {"f": "a*b", "g": "f*c"})
    assert err.value.generator == "g"
    assert not err.value.residual.is_zero()


def test_minimality_flag():
    alg = Algebra([("u", 1), ("c", 2)])
    c = CDGA(alg, {"u": "c"})
    assert not c.is_minimal
    assert heisenberg(3).is_minimal


def test_leibniz_rule_property():
    rng = random.Random(13)
    c = example_contr("y1*y2")
    alg = c.algebra
    for _ in range(25):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        u = alg.from_coordinates(
            p, [Fraction(rng.randint(-3, 3)) for _ in alg.basis(p)]
        )
        v = alg.from_coordinates(
            q, [Fraction(rng.randint(-3, 3)) for _ in alg.basis(q)]
        )
        sign = -1 if p % 2 else 1
        assert c.d(u * v) == c.d(u) * v + (u * c.d(v)).scale(sign)


def test_differential_matrix_squares_to_zero():
    c = example_contr("x1*y1")
    for q in range(0, 7):
        d_q = c.differential_matrix(q)
        d_next = c.differential_matrix(q + 1)
        assert all(not d_next.apply(col) for col in d_q.cols)


def test_differential_matrix_shape():
    c = heisenberg(1)
    mat = c.differential_matrix(1)
    assert (mat.nrows, mat.ncols) == (3, 3)
    assert mat.rank() == 1


def test_heisenberg_betti_match_oracle():
    for n in (1, 2, 3):
        c = heisenberg(n)
        got = [c.betti(q) for q in range(2 * n + 2)]
        expected = [heisenberg_betti_oracle(n, q) for q in range(2 * n + 2)]
        assert got == expected, f"n={n}"


def test_even_generator_cohomology():
    alg = Algebra([("c", 2), ("e", 3)])
    c = CDGA(alg, {"e": "c^2"})
    assert [c.betti(q) for q in range(8)] == [1, 0, 1, 0, 0, 0, 0, 0]


def test_representatives_are_reduced_cocycles():
    c = example_contr()
    for q in range(0, 4):
        basis = c.cohomology(q)
        assert basis.dim == c.betti(q)
        for i, rep in enumerate(basis.representatives):
            assert c.is_cocycle(rep)
            coords = basis.reduction(rep)
            expected = [Fraction(int(i == j)) for j in range(basis.dim)]
            assert coords == expected


def test_reduction_is_linear_and_kills_coboundaries():
    c = heisenberg(2)
    h2 = c.cohomology(2)
    z = c.algebra.gen("z")
    x1 = c.algebra.gen("x1")
    boundary = c.d(z)
    assert h2.reduction(boundary) == [Fraction(0)] * h2.dim
    a = h2.representatives[0]
    b = h2.representatives[1]
    mixed = a.scale(3) + b.scale(Fraction(-1, 2)) + boundary
    coords = h2.reduction(mixed)
    assert coords[0] == 3
    assert coords[1] == Fraction(-1, 2)
    assert all(c_ == 0 for c_ in coords[2:])
    with pytest.raises(NotACocycle):
        h2.reduction(x1 * z)
    with pytest.raises(DegreeError):
        h2.reduction(x1)


def test_class_of_round_trip():
    c = heisenberg(2)
    h2 = c.cohomology(2)
    coeffs = [Fraction(k + 1, 2) for k in range(h2.dim)]
    v = h2.class_of(coeffs)
    assert h2.reduction(v) == coeffs


def test_is_coboundary():
    c = heisenberg(1)
    alg = c.algebra
    u = c.is_coboundary(alg.parse("x1*y1"))
    assert u == alg.gen("z")
    assert c.is_coboundary(alg.parse("x1*z")) is None
    assert c.is_coboundary(alg.zero()).is_zero()
    with pytest.raises(NotACocycle):
        c.is_coboundary(alg.gen("z"))
    with pytest.raises(NotACocycle):
        c.is_coboundary(alg.gen("z") + alg.parse("x1*y1"))


@pytest.mark.parametrize(
    "build",
    [
        lambda: heisenberg(2),
        lambda: heisenberg(3),
        lambda: _three_step_tower(TOWER_SEEDS[0]),
        lambda: _three_step_tower(TOWER_SEEDS[1]),
    ],
    ids=["heisenberg2", "heisenberg3", "tower1", "tower2"],
)
def test_is_coboundary_lift_is_the_tracked_column_walk(build):
    c = build()
    alg = c.algebra
    rng = random.Random(97)
    for q in range(1, alg.top_degree() + 1):
        d = c.differential_matrix(q - 1)
        ref = _WalkEchelon(d.nrows, track=True)
        for col in d.cols:
            ref.add(col)
        # the d of every basis monomial spans B^q; then combinations, and cocycles off B^q
        forms = [c.d(alg.monomial(m)) for m in alg.basis(q - 1)]
        for _ in range(4):
            mix = alg.zero()
            for v in rng.sample(forms, min(3, len(forms))):
                mix = mix + v.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            forms.append(mix)
        forms += [rep + forms[0] for rep in c.cohomology(q).representatives]
        for v in forms:
            residual, coeffs = ref.reduce(dict_coords(alg, v, q))
            want = None if residual else alg.from_coordinates(q - 1, coeffs)
            got = c.is_coboundary(v)
            if want is None:
                assert got is None
            else:
                assert list(got.terms.items()) == list(want.terms.items())
                assert c.d(got) == v


def test_hirsch_extension_builds_heisenberg():
    base = free_abelian(["x1", "y1"])
    ext = hirsch_extend(base, [(Generator("z", 1), base.algebra.parse("x1*y1"))])
    h = heisenberg(1)
    assert ext.algebra == h.algebra
    assert ext.differential() == h.differential()


def test_hirsch_extension_with_zero_transgression():
    ext = hirsch_extend(heisenberg(1), [(Generator("t", 1), heisenberg(1).algebra.zero())])
    # Kunneth with a circle factor
    assert [ext.betti(q) for q in range(5)] == [1, 3, 4, 3, 1]


def test_hirsch_extension_errors():
    h = heisenberg(2)
    with pytest.raises(NotACocycle):
        hirsch_extend(h, [(Generator("w", 1), h.algebra.parse("x1*z"))])
    with pytest.raises(DegreeError):
        hirsch_extend(h, [(Generator("w", 2), h.algebra.parse("x1*y1"))])


def test_tensor_kunneth():
    a = heisenberg(1)
    b = heisenberg(1)
    prod = tensor(a, b)
    assert len(prod.algebra.generators) == 6
    # right factor got primes on clashing names
    names = [g.name for g in prod.algebra.generators]
    assert names[3:] == ["x1'", "y1'", "z'"]
    expected = []
    left = [a.betti(q) for q in range(4)]
    right = [b.betti(q) for q in range(4)]
    for q in range(7):
        expected.append(
            sum(
                left[i] * right[q - i]
                for i in range(max(0, q - 3), min(3, q) + 1)
            )
        )
    assert [prod.betti(q) for q in range(7)] == expected


def test_tensor_with_abelian_factor():
    prod = tensor(heisenberg(2), free_abelian(["t5"]))
    assert [prod.betti(q) for q in range(7)] == [1, 5, 9, 10, 9, 5, 1]


def test_euler_characteristic_vanishes():
    for c in (heisenberg(2), example_contr("y1*y2")):
        top = c.algebra.top_degree()
        chi = sum((-1) ** q * c.betti(q) for q in range(top + 1))
        assert chi == 0


# -- the Leibniz expansion and the recorded image pivots -------------------


def _reference_d_terms(c, mono):
    """d(mono) by two monomial merges per Leibniz term, summed in the same order."""
    alg = c.algebra
    out = {}
    sign = 1
    for pos, idx in enumerate(mono):
        gen = alg.generators[idx]
        for m, coef in c.d_generator(gen.name).terms.items():
            head = alg.monomial_product(mono[:pos], m)
            if head is None:
                continue
            whole = alg.monomial_product(head[1], mono[pos + 1 :])
            if whole is None:
                continue
            v = out.get(whole[1], 0) + sign * head[0] * whole[0] * coef
            if v:
                out[whole[1]] = v
            else:
                del out[whole[1]]
        if gen.degree % 2:
            sign = -sign
    return out


@cache
def _mix_models():
    """The 176 seed-3 formality-mix models, shared: the tests below build fresh CDGAs."""
    return _formality_mix_models(seeds=(3,))


def _top(c, top):
    return sum(g.degree for g in c.algebra.generators) if top is None else top


# an even generator whose differential has an odd factor, so that the sign of
# d passing the factors before it cancels against that factor
EVEN_WITH_ODD_TERMS = pytest.param(
    lambda: CDGA(
        Algebra([("a", 1), ("b", 1), ("y", 2), ("x", 2), ("u", 3)]),
        {"b": "y", "x": "a*y", "u": "y^2 + x*y + a*b*y"},
    ),
    8,
    id="even-with-odd-terms",
)


def _assert_d_terms_match_the_reference(c, top):
    for q in range(top + 1):
        for mono in c.algebra.basis(q):
            assert list(c._d_terms(mono).items()) == list(_reference_d_terms(c, mono).items())


@pytest.mark.parametrize("build, top", [*REPRESENTATIVE_MODELS, EVEN_WITH_ODD_TERMS])
def test_d_terms_match_the_two_merge_expansion(build, top):
    c = build()
    _assert_d_terms_match_the_reference(c, _top(c, top))


def test_d_terms_match_the_two_merge_expansion_on_the_formality_mix():
    for c in _mix_models():
        _assert_d_terms_match_the_reference(c, c.algebra.top_degree())


def _assert_recorded_image_pivots(build, top):
    c = build()
    for q in range(top + 1):
        c.cohomology(q)
    # degree q records the pivots of B^(q+1), read off its row pass of d_q
    for q in range(1, top + 2):
        image = Echelon()
        for col in c.differential_matrix(q - 1).cols:
            image.add(col)
        assert c._image_pivots[q] == image.pivots
    # a degree asked first, with no degree below it, reads the same pivots
    # and records them: off a fresh column echelon of d_(q-1), or off B^q
    # when that is built
    for q in range(top + 1):
        fresh, warm = build(), build()
        assert not fresh._image_pivots
        image = warm.coboundaries(q)
        for other in (fresh, warm):
            got = other.cohomology(q).representatives
            assert [list(v.terms.items()) for v in got] == [
                list(v.terms.items()) for v in c.cohomology(q).representatives
            ]
            assert other._image_pivots[q] == c._image_pivots[q]
        assert warm._image_pivots[q] is image.pivots


@pytest.mark.parametrize("build, top", REPRESENTATIVE_MODELS)
def test_recorded_image_pivots_are_the_column_echelon_pivots(build, top):
    _assert_recorded_image_pivots(build, _top(build(), top))


def test_recorded_image_pivots_are_the_column_echelon_pivots_on_the_formality_mix():
    for c in _mix_models():
        spec = (c.algebra, c.differential())
        _assert_recorded_image_pivots(lambda spec=spec: CDGA(*spec), c.algebra.top_degree())


def _assert_rank_reads_the_column_echelon(build, top):
    # rank d_q is one record, the pivots of B^(q+1), whichever call set it:
    # the rank itself, the row pass of cohomology(q) or the echelon of
    # coboundaries(q + 1), each asked in increasing and in decreasing degree
    degrees = range(-1, top + 1)
    want = [Echelon(build().differential_matrix(q).cols).rank for q in degrees]
    for first in (None, "cohomology", "coboundaries"):
        for order in (degrees, reversed(degrees)):
            c = build()
            for q in order:
                if first == "cohomology" and q >= 0:
                    c.cohomology(q)
                elif first == "coboundaries":
                    c.coboundaries(q + 1)
                assert c.rank(q) == want[q + 1], (first, q)


def test_rank_reads_the_column_echelon():
    for build in _model_builders():
        _assert_rank_reads_the_column_echelon(build, _top(build(), None))


def test_rank_reads_the_column_echelon_on_the_formality_mix():
    for c in _mix_models():
        spec = (c.algebra, c.differential())
        _assert_rank_reads_the_column_echelon(lambda spec=spec: CDGA(*spec), c.algebra.top_degree())


def test_a_labelled_table_builds_no_image_echelon():
    r = from_cdga(heisenberg(3), 7)
    for q in range(8):
        r.labels(q)
    assert not any("_image" in vars(r.basis(q)) for q in range(8))
    # the first reduction builds it
    r.basis(2).coordinates(r.representative(2, 0))
    assert "_image" in vars(r.basis(2))


# -- Kunneth ----------------------------------------------------------------

KUNNETH_FACTORS = {
    **{f"heisenberg({n})": (lambda n=n: heisenberg(n)) for n in (1, 2)},
    "contr[0]": lambda: example_contr("0"),
    "free_abelian(2)": lambda: free_abelian(["t1", "t2"]),
    **{f"tower{s}": (lambda s=s: _three_step_tower(s)) for s in TOWER_SEEDS},
}


@cache
def _factor_betti(name):
    c = KUNNETH_FACTORS[name]()
    return tuple(c.betti(q) for q in range(c.algebra.top_degree() + 1))


# derandomized and without an example database, so tier-1 stays deterministic
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(KUNNETH_FACTORS)), st.sampled_from(sorted(KUNNETH_FACTORS)))
def test_tensor_betti_numbers_are_the_convolution_of_the_factors(left, right):
    a, b = _factor_betti(left), _factor_betti(right)
    c = tensor(KUNNETH_FACTORS[left](), KUNNETH_FACTORS[right]())
    # the degrees through 5: the largest products have 16 generators
    cap = min(c.algebra.top_degree(), 5)
    want = [
        sum(a[i] * b[q - i] for i in range(len(a)) if 0 <= q - i < len(b))
        for q in range(cap + 1)
    ]
    assert [c.betti(q) for q in range(cap + 1)] == want


def test_betti_numbers_by_ranks_are_the_class_counts():
    # b_q = dim A^q - rank d_q - rank d_(q-1) builds no class basis, and
    # equals the class count of a fresh build of the model; a model with an
    # even generator is checked up to degree 6
    builders = [p.values[0] for p in TOP_CLASS_MODELS]
    builders += [
        lambda f=f: cli._cdga_from_document(json.loads(f.read_text()))
        for f in sorted(DATA.glob("*.json"))
        if f.name != "golden_cli.json"
    ]
    for build in builders:
        c, other = build(), build()
        top = c.algebra.top_degree() or 6
        assert [c.betti(q) for q in range(top + 1)] == [other.cohomology(q).dim for q in range(top + 1)]
        assert c._cohomology_cache == {}
