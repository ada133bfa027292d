"""Cohomology ring presentations truncated at a degree cutoff.

A presentation stores per-degree class bases of a CDGA's cohomology and
reads structure constants off them when asked; only products of total
degree at most the cutoff are available.  The degree-1 questions need none of it.
The characteristic subspace, the kernel of multiplication from the second
exterior power of H^1 into H^2, is the kernel of the CDGA's wedge table.
The degree-1 generation test is one climb on the coordinate model's
cochains, two ranks per degree, with no wedge, cohomology basis or
structure constant.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple, Sequence

from .cdga import CDGA, coordinate_model, product_row
from .gca import Algebra, Multivector
from .linalg import Row, SparseMatrix, Vec


class CutoffError(ValueError):
    """A product or dimension beyond the presentation cutoff was requested."""


class RingPresentation:
    """Truncated cohomology ring of a CDGA: its class bases up to the cutoff,
    or up to the algebra's top degree below it, built when it is made, with
    the integer pencil rows of `class_multiplication` as the one memo of
    products.  A zero basis above the top degree is built when asked for."""

    def __init__(self, source: CDGA, max_degree: int):
        if max_degree < 1:
            raise ValueError(f"cutoff must be >= 1, got {max_degree}")
        self.source = source
        self.max_degree = max_degree
        top = source.algebra.top_degree()
        eager = max_degree if top is None else min(max_degree, top)
        self._bases = {q: source.cohomology(q) for q in range(eager + 1)}
        self._labels: dict[int, tuple[str, ...]] = {}
        self._pencil: dict[tuple[int, int], tuple[int, list[Row]]] = {}
        self._point: tuple | None = None
        self._point_maps: dict[int, list] = {}

    def dim(self, q: int) -> int:
        return self.basis(q).dim if q >= 0 else 0

    def dims(self) -> list[int]:
        return [self.dim(q) for q in range(self.max_degree + 1)]

    def representative(self, q: int, i: int) -> Multivector:
        reps = self.basis(q).representatives
        if not 0 <= i < len(reps):
            raise IndexError(f"no class {i} in degree {q}")
        return reps[i]

    def basis(self, q: int):
        if not 0 <= q <= self.max_degree:
            raise CutoffError(f"degree {q} beyond cutoff {self.max_degree}")
        if q not in self._bases:
            self._bases[q] = self.source.cohomology(q)
        return self._bases[q]

    def labels(self, q: int) -> tuple[str, ...]:
        cached = self._labels.get(q)
        if cached is None:
            cached = tuple(str(rep) for rep in self.basis(q).representatives)
            self._labels[q] = cached
        return cached

    def product_coords(self, qa: int, ia: int, qb: int, ib: int) -> Vec:
        """Sparse class coordinates of the product of two basis classes.

        The representatives are integer rows, so their `product_row` is taken
        in integers, and a product of cocycles is closed, so it skips the check
        that ``coordinates`` makes.  Nothing is kept: `class_multiplication`
        memoizes the rows it reads.
        """
        q = qa + qb
        if q > self.max_degree:
            raise CutoffError(
                f"product degree {q} beyond cutoff {self.max_degree}"
            )
        a, b = self.representative(qa, ia), self.representative(qb, ib)
        return self.basis(q)._classes(product_row(self.source.algebra, a, b, q))

    def class_multiplication(self, q: int, i: int) -> tuple[int, list[Row]]:
        """(D, rows) of D times multiplication by degree-1 class i, H^q -> H^(q+1).

        One integer row per class j of H^q, the coordinates of e_i e_j, and
        D the least common denominator of them all.  Built on first use and
        cached, so only the classes some point uses ever form products.
        """
        cached = self._pencil.get((q, i))
        if cached is None:
            coords = [self.product_coords(1, i, q, j) for j in range(self.dim(q))]
            d = lcm(1, *(c.denominator for v in coords for c in v.values()))
            rows = [{k: c.numerator * (d // c.denominator) for k, c in v.items()} for v in coords]
            cached = self._pencil[(q, i)] = (d, rows)
        return cached

    def point_maps(self, w: Sequence[Fraction]) -> dict[int, list]:
        """Memo of the pencil at w: degree d -> [rows, F_p pivot columns, exact rank or None].

        The rows of w: H^d -> H^(d+1) skip the F_p pivot columns of map d-1
        when that was formed first, which keeps both ranks (`resonance`).
        Only the most recent point is kept, keyed by tuple(w) and so compared
        by value; any other point replaces it.  A point seen again is
        recomputed.
        """
        key = tuple(w)
        if self._point != key:
            self._point, self._point_maps = key, {}
        return self._point_maps


def from_cdga(source: CDGA, max_degree: int) -> RingPresentation:
    """Truncated cohomology ring presentation of a validated CDGA."""
    return RingPresentation(source, max_degree)


class GenerationVerdict(NamedTuple):
    """Outcome of the degree-1 generation test up to a degree bound.

    A failure names the first degree H^q not generated, always q >= 2 since
    H^1 is, and the dimension missed there.
    """

    generated: bool
    failure_degree: int | None = None
    cokernel_dim: int | None = None


def generated_in_degree_one_upto(c: CDGA, m: int) -> GenerationVerdict:
    """Check that products of degree-1 classes span H^q for every q <= m.

    Degree 1 holds by construction: d(1) = 0, so B^1 = 0 and H^1 = Z^1 =
    P_1.  From q = 2 on, P_q + B^q is read in the `coordinate_model`: P_q is
    span R^q, so its rank is C(b_1, q) plus that of d'_(q-1) cut to the rows
    I^q.  It is compared with dim Z^q = dim A^q - rank d'_q, which
    ``CDGA.rank`` records for the Betti numbers of the certificate.  Once
    H^(q-1) is generated, (P_q + B^q) / B^q is the image of H^(q-1) x H^1 in H^q, so
    the first degree where they differ fails by the gap, at least 2.  Where
    H^q is generated, the default prop-art certificate, which ranks the cut
    to R^q, passes at q exactly when B'^q splits over span R^q + span I^q.
    """
    if m < 1:
        raise ValueError(f"generation bound must be >= 1, got {m}")
    pivots, model = coordinate_model(c)
    alg = c.algebra
    for q in range(2, m + 1):
        ideal = {j for j, mono in enumerate(alg.basis(q)) if not pivots.issuperset(mono)}
        cocycles = alg.dim(q) - model.rank(q)
        products = comb(len(pivots), q) + model.differential_matrix(q - 1).cut_rank(ideal)
        if missed := cocycles - products:
            return GenerationVerdict(False, q, missed)
    return GenerationVerdict(True)


class CharacteristicSubspace(NamedTuple):
    """Kernel of multiplication from the second exterior power of H^1 to H^2.

    Elements live in a fresh exterior algebra on degree-1 class symbols, one
    per basis class of H^1.
    """

    algebra: Algebra
    basis: tuple[Multivector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def class_symbol_algebra(c: CDGA) -> Algebra:
    """Exterior algebra on one degree-1 symbol per H^1 basis class."""
    labels = tuple(str(z) for z in c.cohomology(1).representatives)
    ok = all(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", s) for s in labels)
    if not ok or len(set(labels)) != len(labels):
        labels = tuple(f"a{i}" for i in range(len(labels)))
    return Algebra([(s, 1) for s in labels])


def characteristic_subspace(c: CDGA) -> CharacteristicSubspace:
    """The kernel of the columns of ``c.wedge_table``, one per pair of H^1
    classes: canonical, the reduced echelon basis, and cached on ``c``."""
    if c._characteristic is None:
        alg = class_symbol_algebra(c)
        pairs = alg.basis(2)
        mat = SparseMatrix(c.algebra.dim(2), len(pairs), [c.wedge_table[p] for p in pairs])
        basis = tuple(
            alg.from_coordinates(2, [vec.get(k, 0) for k in range(len(pairs))])
            for vec in mat.kernel()
        )
        c._characteristic = CharacteristicSubspace(alg, basis)
    return c._characteristic
