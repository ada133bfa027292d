"""Exact sparse linear algebra."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilform.linalg import (
    Echelon,
    SparseMatrix,
    rank_mod_p,
    rank_rows,
    row_primitive,
    to_int_row,
)
from test_ring import REPRESENTATIVE_MODELS
from tracked_reference import _WalkEchelon


def frac(n, d=1):
    return Fraction(n, d)


def dense_to_cols(rows):
    """Row-major dense list of lists to column sparse dicts."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    cols = []
    for j in range(ncols):
        col = {}
        for i in range(nrows):
            if rows[i][j]:
                col[i] = Fraction(rows[i][j])
        cols.append(col)
    return SparseMatrix(nrows, ncols, cols)


def random_matrix(rng, nrows, ncols, density=0.6):
    rows = [
        [rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return rows


def test_row_primitive_normalizes_sign_and_content():
    assert row_primitive({0: -4, 2: 6}) == {0: 2, 2: -3}
    assert row_primitive({5: 7}) == {5: 1}
    assert row_primitive({}) == {}
    assert to_int_row({0: frac(1, 2), 1: frac(-3, 4)}) == {0: 2, 1: -3}


def test_known_rank_and_kernel():
    mat = dense_to_cols([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert mat.rank() == 2
    kern = mat.kernel()
    assert len(kern) == 1
    for vec in kern:
        assert mat.apply(vec) == {}


def test_identity_and_zero():
    ident = dense_to_cols([[1, 0], [0, 1]])
    assert ident.rank() == 2
    assert ident.kernel() == []
    zero = SparseMatrix(3, 2)
    assert zero.rank() == 0
    assert len(zero.kernel()) == 2
    assert zero.is_zero()


def test_empty_shapes():
    tall = SparseMatrix(4, 0)
    assert tall.rank() == 0
    assert tall.kernel() == []
    flat = SparseMatrix(0, 3)
    assert flat.rank() == 0
    assert len(flat.kernel()) == 3


def test_rank_nullity_property():
    rng = random.Random(19)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        mat = dense_to_cols(random_matrix(rng, nrows, ncols))
        kern = mat.kernel()
        assert mat.rank() + len(kern) == ncols
        for vec in kern:
            assert mat.apply(vec) == {}


def test_mod_p_rank_agrees_on_random_matrices():
    rng = random.Random(23)
    for _ in range(25):
        rows = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        int_rows = [to_int_row({j: Fraction(v) for j, v in enumerate(r) if v}) for r in rows]
        exact = rank_rows([dict(r) for r in int_rows])
        assert rank_mod_p([dict(r) for r in int_rows]) == exact


def test_reduce_is_linear():
    ech = Echelon()
    ech.add({0: frac(1), 1: frac(1)})
    ech.add({2: frac(3), 3: frac(1)})
    u = {0: frac(2), 1: frac(1), 3: frac(1)}
    v = {1: frac(1), 2: frac(5)}
    ru = ech.reduce(u)
    rv = ech.reduce(v)
    combined = dict(u)
    for j, val in v.items():
        combined[j] = combined.get(j, Fraction(0)) + 2 * val
    rc = ech.reduce(combined)
    expect = dict(ru)
    for j, val in rv.items():
        cur = expect.get(j, Fraction(0)) + 2 * val
        if cur:
            expect[j] = cur
        else:
            expect.pop(j, None)
    assert rc == expect
    for row in ech.rows:
        assert ech.reduce(row) == {}


def _combination(weights, vecs):
    out = {}
    for c, vec in zip(weights, vecs):
        for j, v in vec.items():
            out[j] = out.get(j, Fraction(0)) + c * v
    return {j: v for j, v in out.items() if v}


# the id names the case without a tracked echelon, the only one left
@pytest.mark.parametrize("seed", [59], ids=["False"])
def test_reduce_splits_off_the_span_exactly(seed):
    rng = random.Random(seed)

    def rand_vec(ncols):
        vec = {
            j: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for j in range(ncols)
            if rng.random() < 0.6
        }
        return {j: v for j, v in vec.items() if v}

    for _ in range(40):
        ncols = rng.randint(1, 7)
        ech = Echelon()
        added = []
        for _ in range(rng.randint(0, 6)):
            if added and rng.random() < 0.4:
                # a dependent row: a rational combination of earlier ones
                weights = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in added]
                vec = _combination(weights, added)
            else:
                vec = rand_vec(ncols)
            added.append(vec)
            ech.add(vec)
        for _ in range(5):
            if added and rng.random() < 0.5:
                weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in added]
                w = _combination(weights, added)
            else:
                w = rand_vec(ncols)
            residual = ech.reduce(w)
            assert all(residual.get(p, 0) == 0 for p in ech.pivots)
            # the residual differs from w by an element of the row space
            diff = _combination([1, -1], [w, residual])
            assert rank_rows([to_int_row(v) for v in added + [diff]]) == ech.rank
            assert ech.contains(w) == (not residual)


def test_to_int_row_matches_fraction_scaling():
    rng = random.Random(71)
    for _ in range(200):
        vec = {
            j: Fraction(rng.randint(-30, 30), rng.randint(1, 40))
            for j in range(rng.randint(1, 6))
        }
        denom = lcm(*(c.denominator for c in vec.values()))
        scaled = {j: int(c * denom) for j, c in vec.items() if c}
        assert to_int_row(vec) == row_primitive(scaled)
        ints = {j: int(c * denom) for j, c in vec.items()}
        assert to_int_row(ints) == row_primitive(scaled)


def test_full_rank_fastpath_is_consistent():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(3, 8)
        rows = random_matrix(rng, n, n, density=0.9)
        mat = dense_to_cols(rows)
        brute = Echelon()
        for r in rows:
            brute.add({j: v for j, v in enumerate(r) if v})
        assert mat.rank() == brute.rank


# the ids name the cases without a tracked echelon, the only ones left
@pytest.mark.parametrize("entries", [int, Fraction], ids=["False", "False-Fraction"])
def test_pivot_index_matches_the_full_walk(entries):
    # entries: every added row has int entries, or Fraction entries with denominators
    rng = random.Random(73 + (entries is Fraction))

    def shuffled(vec):
        # key order must not matter, so the inputs come in a random one
        items = list(vec.items())
        rng.shuffle(items)
        return dict(items)
    for _ in range(60):
        ncols = rng.randint(1, 9)
        ech, ref = Echelon(), _WalkEchelon(ncols, False)
        added = []
        for _ in range(rng.randint(1, 10)):
            if added and rng.random() < 0.4:
                # a dependent row: an integer combination of earlier ones
                weights = [rng.randint(-2, 2) for _ in added]
                vec = _combination(weights, added)
            else:
                vec = {j: rng.randint(-5, 5) for j in range(ncols) if rng.random() < 0.5}
                vec = {j: v for j, v in vec.items() if v}
                if entries is Fraction:
                    vec = {j: Fraction(v, rng.randint(1, 3)) for j, v in vec.items()}
            vec = shuffled({j: entries(v) for j, v in vec.items()})
            assert all(type(v) is entries for v in vec.values())
            added.append(vec)
            assert ech.add(vec) == ref.add(vec)
            assert all(a < b for a, b in zip(ech.pivots, ech.pivots[1:]))
            for p, row in zip(ech.pivots, ech.rows):
                assert all(other.get(p, 0) == 0 for other in ech.rows if other is not row)
            assert ech.by_pivot == dict(zip(ech.pivots, ech.rows))
            assert ech.rank == len(ref.rows)
            assert ech.rows == ref.rows
        for _ in range(6):
            w = {j: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for j in range(ncols)}
            if rng.random() < 0.5:
                w = _combination([rng.randint(-3, 3) for _ in added], added)
            w = shuffled(w)
            residual = ech.reduce(w)
            ref_residual, _ = ref.reduce(w)
            # same entries in the same order, so downstream output cannot move
            assert list(residual.items()) == list(ref_residual.items())


def _walk_kernel(mat):
    """Reference null space: the tracked column walk, markers shifted back by nrows.

    Each column that adds nothing to the span of the earlier ones leaves one
    null relation: its own marker and those of the earlier independent
    columns, made primitive.
    """
    ref = _WalkEchelon(mat.nrows, track=True)
    for col in mat.cols:
        ref.add(col)
    return [{j - mat.nrows: Fraction(v) for j, v in null.items()} for null in ref.null_rows]


@st.composite
def _rational_matrices(draw):
    """Up to 8x8, with zero rows and columns, empty shapes and dependent columns."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-5, max_value=5, max_denominator=3),
    )
    cols = []
    for _ in range(ncols):
        if cols and draw(st.booleans()):
            # a combination of earlier columns
            weights = draw(st.lists(st.integers(-2, 2), min_size=len(cols), max_size=len(cols)))
            col = _combination(weights, cols)
        else:
            col = {i: v for i in range(nrows) if (v := draw(entry))}
        cols.append(col)
    return SparseMatrix(nrows, ncols, cols)


# derandomized and without an example database, so tier-1 stays deterministic
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_rational_matrices())
def test_kernel_is_the_tracked_column_walk(mat):
    kern = mat.kernel()
    assert kern == _walk_kernel(mat)
    assert all(mat.apply(vec) == {} for vec in kern)


@pytest.mark.parametrize("build, top", REPRESENTATIVE_MODELS)
def test_kernel_of_every_differential_is_the_tracked_column_walk(build, top):
    c = build()
    for q in range((c.algebra.top_degree() if top is None else top) + 1):
        d = c.differential_matrix(q)
        assert d.kernel() == _walk_kernel(d)


def test_null_vectors_solve_every_row_and_skip_the_pivots():
    rng = random.Random(83)
    for _ in range(60):
        ncols = rng.randint(0, 8)
        ech = Echelon()
        rows = [
            {j: v for j in range(ncols) if rng.random() < 0.5 and (v := rng.randint(-4, 4))}
            for _ in range(rng.randint(0, 8))
        ]
        for row in rows:
            ech.add(row)
        columns = rng.sample(range(ncols), ncols)
        got = ech.null_vectors(columns)
        assert [f for f, _ in got] == [f for f in columns if f not in ech.pivots]
        for f, k in got:
            assert k[f] > 0 and gcd(*k.values()) == 1
            assert set(k) - {f} <= set(ech.pivots)
            for row in rows:
                assert sum(v * k.get(j, 0) for j, v in row.items()) == 0


def _walk_solve(mat, b):
    """Reference solve: the tracked column walk's coefficients, None off the span."""
    ref = _WalkEchelon(mat.nrows, track=True)
    for col in mat.cols:
        ref.add(col)
    residual, coeffs = ref.reduce(b)
    return None if residual else {k: c for k, c in enumerate(coeffs) if c}


@st.composite
def _systems(draw):
    """A matrix with zero and repeated columns mixed in, and right-hand sides.

    Each b is zero, a combination of the columns, any vector, which for a
    rank-deficient matrix is mostly outside the span, or a copy of an
    earlier b, so that a b off the span can come twice.
    """
    mat = draw(_rational_matrices())
    cols = list(mat.cols)
    for _ in range(draw(st.integers(0, 3))):
        col = {}
        if cols and draw(st.booleans()):
            col = dict(cols[draw(st.integers(0, len(cols) - 1))])
        cols.insert(draw(st.integers(0, len(cols))), col)
    bs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["zero", "inside", "any", "repeat"]))
        if kind == "repeat" and bs:
            b = dict(bs[draw(st.integers(0, len(bs) - 1))])
        elif kind == "zero":
            b = {}
        elif kind == "inside":
            weights = draw(st.lists(st.integers(-3, 3), min_size=len(cols), max_size=len(cols)))
            b = _combination(weights, cols)
        else:
            entry = st.fractions(min_value=-5, max_value=5, max_denominator=3)
            b = {i: v for i in range(mat.nrows) if (v := draw(entry))}
        bs.append(b)
    return SparseMatrix(mat.nrows, len(cols), cols), bs


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_systems())
def test_solve_is_the_tracked_column_walk(system):
    mat, bs = system
    xs = mat.solve(bs)
    assert xs == [_walk_solve(mat, b) for b in bs]
    for x, b in zip(xs, bs):
        if x is not None:
            assert mat.apply(x) == b
            assert list(x) == sorted(x)
            # zero at every column that depends on the earlier ones
            assert rank_rows([to_int_row(mat.cols[j]) for j in x]) == len(x)


def test_solve_edge_cases():
    assert SparseMatrix(2, 3).solve([]) == []
    assert SparseMatrix(0, 0).solve([{}]) == [{}]
    assert SparseMatrix(3, 0).solve([{}]) == [{}]
    assert SparseMatrix(3, 0).solve([{1: frac(2)}]) == [None]
    assert SparseMatrix(2, 3).solve([{}]) == [{}]
    assert SparseMatrix(2, 3).solve([{0: frac(1)}]) == [None]
    # columns: e0, zero, 2*e0, e1, e0 + e1; the dependent ones get no weight
    mat = dense_to_cols([[1, 0, 2, 0, 1], [0, 0, 0, 1, 1], [0, 0, 0, 0, 0]])
    assert mat.solve([{0: frac(3), 1: frac(-1, 2)}]) == [{0: frac(3), 3: frac(-1, 2)}]
    assert mat.solve([{0: frac(0)}]) == [{}]
    assert mat.solve([{2: frac(1)}]) == [None]
    # e2 off the span twice, and e0 - e2, which depends only on e0 and the first e2
    bs = [{2: frac(1)}, {0: frac(3), 1: frac(-1, 2)}, {2: frac(1)}, {0: frac(1), 2: frac(-1)}, {}]
    assert mat.solve(bs) == [None, {0: frac(3), 3: frac(-1, 2)}, None, None, {}]
