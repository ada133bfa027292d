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

    :meth:`reduce` is the one reduction every caller uses, and null spaces
    are read off the rows by :meth:`null_vectors`.

    ``by_pivot`` maps each pivot column to its row.  The rows are kept fully
    reduced, so eliminating one pivot never brings in an entry at another:
    a reduction visits only the pivot columns already present in the vector.
    """

    def __init__(self):
        self.rows: list[Row] = []
        self.pivots: list[int] = []
        self.by_pivot: dict[int, Row] = {}

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

    def add(self, vec: Vec | Row) -> bool:
        """Insert a vector; returns True when the rank grew."""
        row = self._reduce(to_int_row(vec))
        if not row:
            return False
        row = row_primitive(row)
        pivot = min(row)
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

    def reduce(self, vec: Vec) -> Vec:
        """Residual of a vector modulo the row space, zero at every pivot."""
        w = {j: Fraction(v) for j, v in vec.items() if v}
        for pivot in self._hit_pivots(w):
            base = self.by_pivot[pivot]
            f = w[pivot] / base[pivot]
            for j, bv in base.items():
                cur = w.get(j, _ZERO) - f * bv
                if cur:
                    w[j] = cur
                else:
                    del w[j]
        return w

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def null_vectors(self, columns: Iterable[int]) -> list[tuple[int, Row]]:
        """(f, k_f) for each listed column f that is not a pivot, in order.

        k_f = L e_f - sum (L / R[p]) R[f] e_p over the rows R that hold f,
        with pivot p, and L the lcm of those R[p], divided by the gcd of its
        entries: a primitive integer vector, positive at f.  It solves every
        row: a row holding f meets it at f and its own pivot only, since the
        rows are zero at each other's pivots, and L R[f] - (L / R[p]) R[f]
        R[p] = 0; a row not holding f meets it at its pivot alone, where k_f
        is zero.  Its only non-pivot entry is at f, so the k_f of all free
        columns are a basis of the null space, each zero at the other free
        columns.
        """
        holding: dict[int, list[tuple[int, int, int]]] = {}
        for p, row in zip(self.pivots, self.rows):
            lead = row[p]
            for j, v in row.items():
                if j != p:
                    holding.setdefault(j, []).append((p, v, lead))
        out: list[tuple[int, Row]] = []
        for f in columns:
            if f in self.by_pivot:
                continue
            terms = holding.get(f, ())
            scale = lcm(*(lead for _, _, lead in terms))
            k = {f: scale}
            for p, v, lead in terms:
                k[p] = -v * (scale // lead)
            g = gcd(*k.values())
            out.append((f, k if g == 1 else {j: v // g for j, v in k.items()}))
        return out


def rank_mod_p(rows: Iterable[Row]) -> int:
    p = _FAST_PRIME
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

    def rank(self) -> int:
        rows = [to_int_row(c) for c in self.cols]
        return rank_rows(rows, max_rank=self.nrows)

    def _row_echelon(self, extra: Sequence[Vec] = ()) -> Echelon:
        """Echelon of the matrix's rows, with ``extra`` as more columns after its own."""
        rows: dict[int, Vec] = {}
        for j, col in enumerate(self.cols + list(extra)):
            for i, v in col.items():
                rows.setdefault(i, {})[j] = v
        ech = Echelon()
        for row in rows.values():
            ech.add(row)
        return ech

    def kernel(self) -> list[Vec]:
        """Reduced echelon basis of the null space, one vector per free column.

        One row pass: the matrix's rows go into an echelon, and each free
        column f, in increasing order, gives the primitive null vector of
        f's dependence on the earlier independent columns.
        """
        ech = self._row_echelon()
        return [row_to_vec(row_primitive(k)) for _, k in ech.null_vectors(range(self.ncols))]

    def solve(self, bs: Sequence[Vec]) -> list[Vec | None]:
        """For each b, the x with A x = b that is zero at each column dependent on earlier ones.

        None for a b outside the column span.  Every x is read off one row
        echelon of [A | -b_1 | ... | -b_m]: b_t is in the span exactly when
        its column ncols + t is free and its null vector is zero at every
        other b column (a b repeated off the span is free too, as a copy of
        the earlier one).  That null vector, scaled to 1 at the b column, is
        then a solution with every other free unknown zero.  The remaining
        columns are independent, so that solution is unique.
        """
        n = self.ncols
        ech = self._row_echelon([{i: -v for i, v in b.items() if v} for b in bs])
        out: list[Vec | None] = [None] * len(bs)
        for f, k in ech.null_vectors(range(n, n + len(bs))):
            if all(j < n for j in k if j != f):
                out[f - n] = {j: Fraction(v, k[f]) for j, v in sorted(k.items()) if j != f}
        return out


class Span:
    """Subspace of Q^n grown one vector at a time; ``add`` reports a rank gain.

    No module of the package uses it; it stays for the benchmark's input
    generators.
    """

    def __init__(self, ncols: int, vectors: Iterable[Vec]):
        self.ncols = ncols
        self._ech = Echelon()
        for v in vectors:
            self.add(v)

    def add(self, vec: Vec) -> bool:
        return self._ech.add(vec)
