"""Exact sparse linear algebra over the rationals.

Vectors are sparse ``dict[int, Fraction]`` maps.  Internally rows are scaled
to primitive integer form and eliminated fraction-free, so no floating point
ever enters.  A single word-sized prime powers an optional fast path: a full
rank over F_p certifies full rank over the rationals, everything else falls
back to exact elimination.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = dict[int, Fraction]
Row = dict[int, int]

_FAST_PRIME = 2**31 - 1
_ZERO = Fraction(0)


def to_int_row(vec: Vec) -> Row:
    """Clear denominators and strip content; zero vector becomes {}."""
    if not vec:
        return {}
    denom = lcm(*(c.denominator for c in vec.values()))
    row = {j: c.numerator * (denom // c.denominator) for j, c in vec.items() if c}
    return row_primitive(row)


def row_primitive(row: Row) -> Row:
    row = {j: v for j, v in row.items() if v}
    if not row:
        return {}
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
    lead = row[min(row)]
    if lead < 0:
        g = -g
    return {j: v // g for j, v in row.items()}


def row_to_vec(row: Row) -> Vec:
    return {j: Fraction(v) for j, v in row.items()}


def _combine(a: Row, ca: int, b: Row, cb: int) -> Row:
    """ca*a + cb*b over the integers."""
    out = dict((j, ca * v) for j, v in a.items()) if ca != 1 else dict(a)
    for j, v in b.items():
        w = out.get(j, 0) + cb * v
        if w:
            out[j] = w
        else:
            out.pop(j, None)
    return out


class Echelon:
    """Reduced row echelon form maintained incrementally over primitive rows.

    With ``track=True`` every added row is augmented with a marker column at
    ``ncols + k``, so the real part of each row is the sum of its marker
    entries times the added vectors; rows that reduce to zero surface exact
    dependence relations through :attr:`null_rows`.  Marker columns are
    never pivots.  :meth:`reduce` is the one reduction every caller uses.

    ``by_pivot`` maps each pivot column to its row.  The rows are kept fully
    reduced, so eliminating one pivot never brings in an entry at another:
    a reduction visits only the pivot columns already present in the vector.
    """

    def __init__(self, ncols: int | None = None, track: bool = False):
        if track and ncols is None:
            raise ValueError("tracking requires an explicit column count")
        self.ncols = ncols
        self.track = track
        self.rows: list[Row] = []
        self.pivots: list[int] = []
        self.by_pivot: dict[int, Row] = {}
        self.null_rows: list[Row] = []
        self.added = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _hit_pivots(self, vec: dict) -> list[int]:
        return sorted(j for j in vec if j in self.by_pivot)

    def _reduce(self, row: Row) -> Row:
        for pivot in self._hit_pivots(row):
            base = self.by_pivot[pivot]
            row = _combine(row, base[pivot], base, -row[pivot])
        return row

    def _real_part(self, row: Row) -> Row:
        if not self.track:
            return row
        return {j: v for j, v in row.items() if j < self.ncols}

    def add(self, vec: Vec | Row) -> bool:
        """Insert a vector; returns True when the rank grew."""
        vec = {j: v for j, v in vec.items() if v}
        if self.track:
            # scale the marker together with the vector, never separately
            vec[self.ncols + self.added] = 1
        self.added += 1
        row = to_int_row(vec)
        row = self._reduce(row)
        if not self._real_part(row):
            if self.track and row:
                self.null_rows.append(row_primitive(row))
            return False
        row = row_primitive(row)
        pivot = min(self._real_part(row))
        at = bisect_left(self.pivots, pivot)
        # a row with a later pivot has no entry left of it, so only earlier rows change
        for k in range(at):
            base = self.rows[k]
            c = base.get(pivot)
            if c:
                base = row_primitive(_combine(base, row[pivot], row, -c))
                self.rows[k] = self.by_pivot[self.pivots[k]] = base
        self.rows.insert(at, row)
        self.pivots.insert(at, pivot)
        self.by_pivot[pivot] = row
        return True

    def reduce(self, vec: Vec) -> tuple[Vec, list[Fraction] | None]:
        """Residual of a vector modulo the row space, zero at every pivot.

        With tracking, also the coefficients c over the added vectors with
        ``vec - residual == sum(c[k] * added[k])``; they vanish on every added
        vector that did not raise the rank.  Without tracking they are None.
        """
        w = {j: Fraction(v) for j, v in vec.items() if v}
        track, ncols = self.track, self.ncols
        coeffs = [_ZERO] * self.added if track else None
        for pivot in self._hit_pivots(w):
            base = self.by_pivot[pivot]
            f = w[pivot] / base[pivot]
            for j, bv in base.items():
                if track and j >= ncols:
                    coeffs[j - ncols] += f * bv
                    continue
                cur = w.get(j, _ZERO) - f * bv
                if cur:
                    w[j] = cur
                else:
                    del w[j]
        return w, coeffs

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)[0]

    def express(self, vec: Vec) -> list[Fraction] | None:
        """Coefficients over the added vectors, or None when outside the span."""
        if not self.track:
            raise ValueError("express requires tracking")
        residual, coeffs = self.reduce(vec)
        return None if residual else coeffs

    def basis_vectors(self) -> list[Vec]:
        return [row_to_vec(self._real_part(r)) for r in self.rows]


def rank_mod_p(rows: Iterable[Row], p: int = _FAST_PRIME) -> int:
    pivots: dict[int, Row] = {}
    for raw in rows:
        row = {j: v % p for j, v in raw.items() if v % p}
        while row:
            col = min(row)
            base = pivots.get(col)
            if base is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {j: (v * inv) % p for j, v in row.items()}
                break
            c = row[col]
            row = {
                j: v
                for j in set(row) | set(base)
                if (v := (row.get(j, 0) - c * base.get(j, 0)) % p)
            }
    return len(pivots)


def rank_rows(rows: Sequence[Row], max_rank: int | None = None) -> int:
    """Exact rank; certifies through F_p first when the matrix could be full."""
    rows = [r for r in rows if r]
    if not rows:
        return 0
    if max_rank is not None:
        fast = rank_mod_p(rows)
        if fast == min(len(rows), max_rank):
            return fast
    ech = Echelon()
    for r in rows:
        ech.add(r)
    return ech.rank


@dataclass
class SparseMatrix:
    """Column-major sparse rational matrix."""

    nrows: int
    ncols: int
    cols: list[Vec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.cols:
            self.cols = [{} for _ in range(self.ncols)]
        if len(self.cols) != self.ncols:
            raise ValueError("column count mismatch")

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def apply(self, vec: Vec) -> Vec:
        out: dict[int, Fraction] = {}
        for j, c in vec.items():
            if not c:
                continue
            for i, v in self.cols[j].items():
                w = out.get(i, Fraction(0)) + c * v
                if w:
                    out[i] = w
                else:
                    out.pop(i, None)
        return out

    def compose(self, other: SparseMatrix) -> SparseMatrix:
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in composition")
        return SparseMatrix(self.nrows, other.ncols, [self.apply(c) for c in other.cols])

    def rank(self) -> int:
        rows = [to_int_row(c) for c in self.cols]
        return rank_rows(rows, max_rank=self.nrows)

    def kernel(self) -> list[Vec]:
        """Deterministic rational basis of the null space."""
        ech = Echelon(self.nrows, track=True)
        for c in self.cols:
            ech.add(c)
        out = []
        for null in ech.null_rows:
            vec = {j - self.nrows: Fraction(v) for j, v in null.items()}
            out.append(vec)
        return out

    def to_dense(self) -> list[list[Fraction]]:
        dense = [[Fraction(0)] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                dense[i][j] = v
        return dense


class Span:
    """Subspace of Q^n with exact coordinates: a tracked ``Echelon``.

    No module of the package uses it; it stays for the benchmark's input
    generators and the tests.  Where only rank, membership or pivots are
    read, an untracked ``Echelon`` is cheaper.
    """

    def __init__(self, ncols: int, vectors: Iterable[Vec] = ()):
        self.ncols = ncols
        self._ech = Echelon(ncols, track=True)
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return self._ech.rank

    def add(self, vec: Vec) -> bool:
        return self._ech.add(vec)

    def contains(self, vec: Vec) -> bool:
        return self._ech.contains(vec)

    def express(self, vec: Vec) -> list[Fraction] | None:
        return self._ech.express(vec)

    def basis_vectors(self) -> list[Vec]:
        return self._ech.basis_vectors()

    def pivot_columns(self) -> list[int]:
        return list(self._ech.pivots)

