"""Exact sparse linear algebra."""

import random
from fractions import Fraction
from math import lcm

import pytest

from nilform.linalg import (
    Echelon,
    Span,
    SparseMatrix,
    rank_mod_p,
    rank_rows,
    row_primitive,
    to_int_row,
)


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


def test_compose():
    a = dense_to_cols([[1, 2], [0, 1]])
    b = dense_to_cols([[1, 0], [1, 1]])
    ab = a.compose(b)
    assert ab.to_dense() == [[Fraction(3), Fraction(2)], [Fraction(1), Fraction(1)]]
    with pytest.raises(ValueError):
        a.compose(SparseMatrix(3, 1))


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


def test_span_membership_and_express():
    span = Span(3)
    v1 = {0: frac(1), 1: frac(2)}
    v2 = {1: frac(1), 2: frac(1)}
    assert span.add(v1)
    assert span.add(v2)
    assert not span.add({0: frac(1), 1: frac(3), 2: frac(1)})
    assert span.dim == 2
    target = {0: frac(2), 1: frac(5), 2: frac(1)}
    coeffs = span.express(target)
    assert coeffs is not None
    rebuilt = {}
    for c, vec in zip(coeffs, [v1, v2, {0: frac(1), 1: frac(3), 2: frac(1)}]):
        for j, v in vec.items():
            rebuilt[j] = rebuilt.get(j, Fraction(0)) + c * v
    assert {j: v for j, v in rebuilt.items() if v} == target
    assert span.express({2: frac(1), 0: frac(1)}) is None
    assert span.express({}) == [Fraction(0)] * 3


def test_express_random_property():
    rng = random.Random(5)
    for _ in range(20):
        ncols = rng.randint(2, 6)
        vecs = []
        span = Span(ncols)
        for _ in range(rng.randint(1, 5)):
            vec = {
                j: Fraction(rng.randint(-3, 3))
                for j in range(ncols)
                if rng.random() < 0.7
            }
            vec = {j: v for j, v in vec.items() if v}
            vecs.append(vec)
            span.add(vec)
        mix = {}
        weights = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in vecs]
        for w, vec in zip(weights, vecs):
            for j, v in vec.items():
                mix[j] = mix.get(j, Fraction(0)) + w * v
        mix = {j: v for j, v in mix.items() if v}
        coeffs = span.express(mix)
        assert coeffs is not None
        rebuilt = {}
        for c, vec in zip(coeffs, vecs):
            for j, v in vec.items():
                rebuilt[j] = rebuilt.get(j, Fraction(0)) + c * v
        assert {j: v for j, v in rebuilt.items() if v} == mix


def test_reduce_is_linear():
    ech = Echelon(4)
    ech.add({0: frac(1), 1: frac(1)})
    ech.add({2: frac(3), 3: frac(1)})
    u = {0: frac(2), 1: frac(1), 3: frac(1)}
    v = {1: frac(1), 2: frac(5)}
    ru, cu = ech.reduce(u)
    rv, _ = ech.reduce(v)
    assert cu is None
    combined = dict(u)
    for j, val in v.items():
        combined[j] = combined.get(j, Fraction(0)) + 2 * val
    rc, _ = ech.reduce(combined)
    expect = dict(ru)
    for j, val in rv.items():
        cur = expect.get(j, Fraction(0)) + 2 * val
        if cur:
            expect[j] = cur
        else:
            expect.pop(j, None)
    assert rc == expect
    for row_vec in ech.basis_vectors():
        assert ech.reduce(row_vec)[0] == {}


def _combination(weights, vecs):
    out = {}
    for c, vec in zip(weights, vecs):
        for j, v in vec.items():
            out[j] = out.get(j, Fraction(0)) + c * v
    return {j: v for j, v in out.items() if v}


@pytest.mark.parametrize("track", [False, True])
def test_reduce_splits_off_the_span_exactly(track):
    rng = random.Random(53 if track else 59)

    def rand_vec(ncols):
        vec = {
            j: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for j in range(ncols)
            if rng.random() < 0.6
        }
        return {j: v for j, v in vec.items() if v}

    for _ in range(40):
        ncols = rng.randint(1, 7)
        ech = Echelon(ncols, track=track)
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
            residual, coeffs = ech.reduce(w)
            assert all(residual.get(p, 0) == 0 for p in ech.pivots)
            # the residual differs from w by an element of the row space
            diff = _combination([1, -1], [w, residual])
            assert rank_rows([to_int_row(v) for v in added + [diff]]) == ech.rank
            assert ech.contains(w) == (not residual)
            if not track:
                assert coeffs is None
                continue
            assert len(coeffs) == len(added)
            assert _combination(coeffs + [1], added + [residual]) == w
            assert ech.express(w) == (None if residual else coeffs)


def test_untracked_echelon_agrees_with_tracked():
    rng = random.Random(67)

    def rand_vec(ncols):
        vec = {
            j: Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))
            for j in range(ncols)
            if rng.random() < 0.6
        }
        return {j: v for j, v in vec.items() if v}

    for _ in range(60):
        ncols = rng.randint(1, 8)
        tracked, plain = Echelon(ncols, track=True), Echelon(ncols)
        added = []
        for _ in range(rng.randint(0, 9)):
            if added and rng.random() < 0.4:
                weights = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in added]
                vec = _combination(weights, added)
            else:
                vec = rand_vec(ncols)
            added.append(vec)
            assert tracked.add(vec) == plain.add(vec)
            assert tracked.rank == plain.rank
            assert tracked.pivots == plain.pivots
        for _ in range(6):
            if added and rng.random() < 0.5:
                weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in added]
                w = _combination(weights, added)
            else:
                w = rand_vec(ncols)
            assert tracked.contains(w) == plain.contains(w)
            assert tracked.reduce(w)[0] == plain.reduce(w)[0]


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


class _WalkEchelon:
    """Reference echelon: every reduction walks all pivots in order."""

    def __init__(self, ncols, track):
        self.ncols, self.track = ncols, track
        self.rows, self.pivots, self.null_rows = [], [], []
        self.added = 0

    @staticmethod
    def _combine(a, ca, b, cb):
        out = {j: ca * v for j, v in a.items()}
        for j, v in b.items():
            out[j] = out.get(j, 0) + cb * v
        return {j: v for j, v in out.items() if v}

    def _real(self, row):
        return {j: v for j, v in row.items() if not self.track or j < self.ncols}

    def add(self, vec):
        frac_vec = {j: Fraction(v) for j, v in vec.items() if v}
        if self.track:
            frac_vec[self.ncols + self.added] = Fraction(1)
        self.added += 1
        row = to_int_row(frac_vec)
        for pivot, base in zip(self.pivots, self.rows):
            if row.get(pivot):
                row = self._combine(row, base[pivot], base, -row[pivot])
        if not self._real(row):
            if self.track and row:
                self.null_rows.append(row_primitive(row))
            return False
        row = row_primitive(row)
        pivot = min(self._real(row))
        for k, base in enumerate(self.rows):
            if base.get(pivot):
                self.rows[k] = row_primitive(self._combine(base, row[pivot], row, -base[pivot]))
        at = sum(1 for p in self.pivots if p < pivot)
        self.rows.insert(at, row)
        self.pivots.insert(at, pivot)
        return True

    def reduce(self, vec):
        w = {j: Fraction(v) for j, v in vec.items() if v}
        coeffs = [Fraction(0)] * self.added if self.track else None
        for pivot, base in zip(self.pivots, self.rows):
            c = w.get(pivot)
            if c:
                f = c / base[pivot]
                for j, bv in base.items():
                    if self.track and j >= self.ncols:
                        coeffs[j - self.ncols] += f * bv
                        continue
                    cur = w.get(j, Fraction(0)) - f * bv
                    if cur:
                        w[j] = cur
                    else:
                        del w[j]
        return w, coeffs


@pytest.mark.parametrize(
    "track, entries",
    [(False, int), (True, int), (False, Fraction), (True, Fraction)],
    ids=["False", "True", "False-Fraction", "True-Fraction"],
)
def test_pivot_index_matches_the_full_walk(track, entries):
    # entries: every added row has int entries, or Fraction entries with denominators
    rng = random.Random((71 if track else 73) + (entries is Fraction))

    def shuffled(vec):
        # key order must not matter, so the inputs come in a random one
        items = list(vec.items())
        rng.shuffle(items)
        return dict(items)
    for _ in range(60):
        ncols = rng.randint(1, 9)
        ech, ref = Echelon(ncols, track=track), _WalkEchelon(ncols, track)
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
            assert ech.null_rows == ref.null_rows
        for _ in range(6):
            w = {j: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for j in range(ncols)}
            if rng.random() < 0.5:
                w = _combination([rng.randint(-3, 3) for _ in added], added)
            w = shuffled(w)
            residual, coeffs = ech.reduce(w)
            ref_residual, ref_coeffs = ref.reduce(w)
            # same entries in the same order, so downstream output cannot move
            assert list(residual.items()) == list(ref_residual.items())
            assert coeffs == ref_coeffs
