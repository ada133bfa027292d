"""Exact sparse linear algebra over the rationals.

Vectors are sparse ``dict[int, Fraction]`` maps, or ``dict[int, int]`` rows
where every entry is integral.  Rows are cleared of denominators and
eliminated fraction-free, in integers, and a reduction returns its residual
as an integer row over one positive denominator, so no floating point ever
enters and a ``Fraction`` is built only where a caller reads one.  Ranks
are exact.  A single word-sized prime, ``_FAST_PRIME``, gives the F_p pivots
the resonance pencils and Macaulay matrices are first ranked by: a full
rank over F_p certifies full rank over the rationals.  Its pivot rows are
kept unscaled, so a modular inverse is taken only for a pivot some later
row is reduced against.

Polynomials are ``dict[tuple[int, ...], Fraction]`` maps from a sorted
tuple of unknown indices (repeats allowed, ``()`` the constant) to a
nonzero coefficient.  Nothing here adds or multiplies them: the chain-map
solver computes in its target algebra and reads each coefficient off as a
polynomial.  :func:`poly_value` evaluates one, and :func:`groebner_leads`
reads the leading monomials of a Groebner basis of some, for the two
Groebner steps; it is the one place the package imports sympy.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Container, Iterable, Sequence

Vec = dict[int, Fraction]
Row = dict[int, int]
Poly = dict[tuple[int, ...], Fraction]

_FAST_PRIME = 2**31 - 1


def _integral(vec: Vec | Row) -> tuple[Row, int]:
    """(L * vec, L): an integer row without zeros, L the lcm of the denominators."""
    scale = lcm(*(v.denominator for v in vec.values()))
    if scale == 1:
        return {j: v.numerator for j, v in vec.items() if v}, 1
    return {j: v.numerator * (scale // v.denominator) for j, v in vec.items() if v}, scale


def to_int_row(vec: Vec | Row) -> Row:
    """Clear denominators and strip content; zero vector becomes {}."""
    return row_primitive(_integral(vec)[0])


def row_primitive(row: Row) -> Row:
    row = {j: v for j, v in row.items() if v}
    if not row:
        return {}
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _eliminate(
    row: Row, base: Row, p: int, hits: list[int] | None = None, pivots: Container[int] = ()
) -> tuple[Row, int]:
    """(a * row - c * base, a), zero at base's pivot p, in integers.

    a and c are base[p] > 0 and row[p] divided by their gcd.  The row keeps
    its key order, and a key it gains goes last; one that is a key of
    ``pivots`` is also pushed on the heap ``hits``.
    """
    a, c = base[p], row[p]
    g = gcd(a, c)
    if g != 1:
        a //= g
        c //= g
    if a != 1:
        row = {j: a * v for j, v in row.items()}
    for j, v in base.items():
        if j in row:
            w = row[j] - c * v
            if w:
                row[j] = w
            else:
                del row[j]
        else:
            row[j] = -c * v
            if j in pivots:
                heappush(hits, j)
    return row, a


class Echelon:
    """Row echelon form of integer rows, reduced once, when first read.

    ``add`` eliminates forward only: the new row is reduced against the
    pivots it hits, in increasing order, and a base row not yet reduced can
    bring in a later pivot, so the hits sit on a heap.  The row is then made
    primitive, with a positive entry at its pivot, the least column left.
    No earlier row is touched, so a caller that needs only the rank, or
    whether it grew, does no back-substitution at all.

    The first read of the reduced form, ``rows``, ``by_pivot``, ``reduce``
    or ``null_vectors``, settles every row bottom-up in one pass: each is
    reduced against the rows of larger pivot, already settled, so no row is
    left with an entry at another's pivot.  The settled rows are the reduced
    row echelon form, primitive, whatever the order of the adds; a reduction
    then visits only the pivot columns already present in the vector.  An
    add that raises the rank unsettles the form.  ``pivots`` is kept sorted
    by ``add`` and settles nothing.
    """

    def __init__(self, vectors: Iterable[Vec | Row] = ()):
        self.pivots: list[int] = []
        self._rows: dict[int, Row] = {}
        self._settled = True
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def by_pivot(self) -> dict[int, Row]:
        """Pivot column -> its row, settled."""
        if not self._settled:
            self._settle()
        return self._rows

    @property
    def rows(self) -> list[Row]:
        """The settled rows in increasing pivot order."""
        rows = self.by_pivot
        return [rows[p] for p in self.pivots]

    def _settle(self) -> None:
        rows = self._rows
        for p in reversed(self.pivots):
            hits = sorted(j for j in rows[p] if j != p and j in rows)
            if hits:
                # a copy: a row once read is never changed in place
                row = dict(rows[p])
                for q in hits:
                    row = _eliminate(row, rows[q], q)[0]
                rows[p] = row_primitive(row)
        self._settled = True

    def add(self, vec: Vec | Row) -> bool:
        """Insert a vector; returns True when the rank grew."""
        rows = self._rows
        row = _integral(vec)[0]
        hits = [j for j in row if j in rows]
        heapify(hits)
        while hits:
            p = heappop(hits)
            # a pivot pushed twice, or cancelled since it was pushed
            if p in row:
                row = _eliminate(row, rows[p], p, hits, rows)[0]
        if not row:
            return False
        row = row_primitive(row)
        pivot = min(row)
        rows[pivot] = row
        insort(self.pivots, pivot)
        self._settled = False
        return True

    def reduce(self, vec: Vec | Row) -> tuple[Row, int]:
        """(r, s) with r / s the residual of a vector modulo the row space.

        r is an integer row, zero at every pivot, and s > 0; the reduction
        is fraction-free.  r keeps the vector's key order, and a key it
        gains goes last.
        """
        w, scale = _integral(vec)
        rows = self.by_pivot
        for p in sorted(j for j in w if j in rows):
            w, a = _eliminate(w, rows[p], p)
            scale *= a
        return w, scale

    def contains(self, vec: Vec | Row) -> bool:
        return not self.reduce(vec)[0]

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
        rows = self.by_pivot
        holding: dict[int, list[tuple[int, int, int]]] = {}
        for p in self.pivots:
            row = rows[p]
            lead = row[p]
            for j, v in row.items():
                if j != p:
                    holding.setdefault(j, []).append((p, v, lead))
        out: list[tuple[int, Row]] = []
        for f in columns:
            if f in rows:
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
    """Rank over F_p of integer rows, p = ``_FAST_PRIME``; at most the rank over Q.
    No module of the package calls it; the benchmark's tracer hooks it."""
    return len(pivots_mod_p(rows))


def pivots_mod_p(rows: Iterable[Row]) -> set[int]:
    """Pivot columns of integer rows over F_p, p = ``_FAST_PRIME``.

    Each row is reduced in place against the pivot rows, taken off a heap of
    the pivots it hits, as in ``Echelon.add``: a step touches only the pivot
    row's columns and drops the zeros it makes.  A pivot row is kept as it
    was reduced, not scaled to 1 at its pivot; the inverse of that entry is
    taken when a later row first hits it, and kept, so a pivot no row hits
    costs no inverse.  A new pivot row is zero at the earlier pivots, so the
    input's minor on the pivot columns is nonzero mod p, hence over Q.
    """
    p = _FAST_PRIME
    pivots: dict[int, Row] = {}
    inverses: dict[int, int] = {}
    for raw in rows:
        row = {j: r for j, v in raw.items() if (r := v % p)}
        hits = [j for j in row if j in pivots]
        heapify(hits)
        while hits:
            if (c := row.get(col := heappop(hits))) is None:  # pushed twice, or cancelled
                continue
            base = pivots[col]
            if (inv := inverses.get(col)) is None:
                inv = inverses[col] = pow(base[col], -1, p)
            c = c * inv % p
            for j, v in base.items():
                if j not in row:
                    row[j] = -c * v % p
                    if j in pivots:
                        heappush(hits, j)
                elif r := (row[j] - c * v) % p:
                    row[j] = r
                else:
                    del row[j]
        if row:
            pivots[min(row)] = row
    return set(pivots)


def rank_rows(rows: Iterable[Vec | Row]) -> int:
    """Exact rank of rows, by one forward elimination."""
    return Echelon(rows).rank


class SparseMatrix:
    """Column-major sparse rational matrix; ``cols`` defaults to empty columns."""

    def __init__(self, nrows: int, ncols: int, cols: list[Vec] | None = None) -> None:
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols or [{} for _ in range(ncols)]
        if len(self.cols) != ncols:
            raise ValueError("column count mismatch")

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def apply(self, vec: Vec) -> Vec:
        out: Vec = {}
        for j, c in vec.items():
            if not c:
                continue
            for i, v in self.cols[j].items():
                w = out.get(i, 0) + c * v
                if w:
                    out[i] = w
                else:
                    out.pop(i, None)
        return out

    def rank(self) -> int:
        """Exact rank, the rank of the columns."""
        return rank_rows(self.cols)

    def cut_rank(self, rows: Container[int]) -> int:
        """Rank of the columns cut to a set of rows."""
        return Echelon({i: v for i, v in col.items() if i in rows} for col in self.cols).rank

    def _row_echelon(self, extra: Sequence[Vec] = ()) -> Echelon:
        """Echelon of the matrix's rows, with ``extra`` as more columns after its own."""
        rows: dict[int, Vec] = {}
        for j, col in enumerate(self.cols + list(extra)):
            for i, v in col.items():
                rows.setdefault(i, {})[j] = v
        return Echelon(rows.values())

    def kernel(self) -> list[Row]:
        """Reduced echelon basis of the null space, one vector per free column.

        One row pass: the matrix's rows go into an echelon, and each free
        column f, in increasing order, gives the null vector of f's
        dependence on the earlier independent columns, as a primitive
        integer row, positive at its least column.
        """
        ech = self._row_echelon()
        return [row_primitive(k) for _, k in ech.null_vectors(range(self.ncols))]

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


class Span(Echelon):
    """Subspace of Q^n grown one vector at a time; ``add`` reports a rank gain.

    No module of the package uses it; it stays for the benchmark's input
    generators.
    """

    def __init__(self, ncols: int, vectors: Iterable[Vec]):
        super().__init__(vectors)
        self.ncols = ncols


def poly_value(p: Poly, values: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, c in p.items():
        for i in mono:
            c *= values[i]
        total += c
    return total


def groebner_leads(polys: Iterable[Poly], n: int) -> list[tuple[int, ...]]:
    """Leading exponent vectors of the reduced Groebner basis of polys in n unknowns.

    The basis is taken over QQ in grevlex, with unknown i the i-th variable,
    and zero polys are left out: the unit ideal gives ``[(0,) * n]`` and the
    zero ideal ``[]``.  The package's only sympy import is in here.
    """
    from sympy.polys.domains import QQ
    from sympy.polys.groebnertools import groebner
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import ring

    R = ring([f"x{i}" for i in range(n)], QQ, grevlex)[0]
    elements = [
        R({tuple(map(m.count, range(n))): QQ(c.numerator, c.denominator) for m, c in p.items()})
        for p in polys
        if p
    ]
    return [g.LM for g in groebner(elements, R)]
