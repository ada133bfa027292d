"""Cohomology ring presentations truncated at a degree cutoff.

A presentation stores per-degree class bases of a CDGA's cohomology plus
lazily computed structure constants, which are cached on the CDGA and so
shared by all its presentations; only products of total degree at most the
cutoff are available.  On top of it sit the degree-1 generation test
and the characteristic subspace, the kernel of multiplication from the
second exterior power of H^1 into H^2.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from .cdga import CDGA
from .gca import Algebra, Multivector
from .linalg import Echelon, SparseMatrix, Vec


class CutoffError(ValueError):
    """A product or dimension beyond the presentation cutoff was requested."""


class RingPresentation:
    """Truncated cohomology ring of a CDGA with exact structure constants."""

    def __init__(self, source: CDGA, max_degree: int):
        if max_degree < 1:
            raise ValueError(f"cutoff must be >= 1, got {max_degree}")
        self.source = source
        self.max_degree = max_degree
        self._bases = {q: source.cohomology(q) for q in range(max_degree + 1)}
        self._products = source._class_products
        self._labels: dict[int, tuple[str, ...]] = {}

    def dim(self, q: int) -> int:
        if q < 0:
            return 0
        if q > self.max_degree:
            raise CutoffError(f"degree {q} beyond cutoff {self.max_degree}")
        return self._bases[q].dim

    def dims(self) -> list[int]:
        return [self.dim(q) for q in range(self.max_degree + 1)]

    def representative(self, q: int, i: int) -> Multivector:
        if not 0 <= q <= self.max_degree:
            raise CutoffError(f"degree {q} beyond cutoff {self.max_degree}")
        reps = self._bases[q].representatives
        if not 0 <= i < len(reps):
            raise IndexError(f"no class {i} in degree {q}")
        return reps[i]

    def basis(self, q: int):
        if not 0 <= q <= self.max_degree:
            raise CutoffError(f"degree {q} beyond cutoff {self.max_degree}")
        return self._bases[q]

    def labels(self, q: int) -> tuple[str, ...]:
        cached = self._labels.get(q)
        if cached is None:
            cached = tuple(str(rep) for rep in self.basis(q).representatives)
            self._labels[q] = cached
        return cached

    def product_coords(self, qa: int, ia: int, qb: int, ib: int) -> Vec:
        """Sparse class coordinates of the product of two basis classes."""
        q = qa + qb
        if q > self.max_degree:
            raise CutoffError(
                f"product degree {q} beyond cutoff {self.max_degree}"
            )
        if (qa, ia) > (qb, ib):
            base = self.product_coords(qb, ib, qa, ia)
            if qa % 2 and qb % 2:
                return {j: -c for j, c in base.items()}
            return base
        key = (qa, ia, qb, ib)
        cached = self._products.get(key)
        if cached is None:
            # representative checks both indices, so only valid keys are cached
            prod = self.representative(qa, ia) * self.representative(qb, ib)
            cached = self._products[key] = self._bases[q].coordinates(prod)
        return cached

    def multiply_coords(self, qa: int, va: Vec, qb: int, vb: Vec) -> Vec:
        """Bilinear extension of product_coords to coordinate vectors."""
        out: Vec = {}
        for ia, ca in va.items():
            if not ca:
                continue
            for ib, cb in vb.items():
                if not cb:
                    continue
                for j, c in self.product_coords(qa, ia, qb, ib).items():
                    cur = out.get(j, Fraction(0)) + ca * cb * c
                    if cur:
                        out[j] = cur
                    else:
                        out.pop(j, None)
        return out


def from_cdga(source: CDGA, max_degree: int) -> RingPresentation:
    """Truncated cohomology ring presentation of a validated CDGA."""
    return RingPresentation(source, max_degree)


@dataclass(frozen=True)
class GenerationVerdict:
    """Outcome of the degree-1 generation test up to a degree bound."""

    generated: bool
    failure_degree: int | None = None
    cokernel_dim: int | None = None


def generated_in_degree_one_upto(ring: RingPresentation, m: int) -> GenerationVerdict:
    """Check that products of degree-1 classes span H^q for every q <= m.

    Degree q is reached only once H^(q-1) is generated, so the products of
    the basis classes of H^(q-1) with those of H^1 span the generated part
    of H^q.  Reports the first failing degree and the dimension missed there.
    """
    if not 1 <= m <= ring.max_degree:
        raise CutoffError(f"generation bound {m} outside 1..{ring.max_degree}")
    b1 = ring.dim(1)
    for q in range(2, m + 1):
        dim = ring.dim(q)
        span = Echelon()
        for i, j in itertools.product(range(ring.dim(q - 1)), range(b1)):
            # no product is formed once the span is all of H^q
            if span.rank == dim:
                break
            span.add(ring.product_coords(q - 1, i, 1, j))
        if span.rank < dim:
            return GenerationVerdict(False, q, dim - span.rank)
    return GenerationVerdict(True)


@dataclass(frozen=True)
class CharacteristicSubspace:
    """Kernel of multiplication from the second exterior power of H^1 to H^2.

    Elements live in a fresh exterior algebra on degree-1 class symbols, one
    per basis class of H^1.
    """

    ring: RingPresentation
    algebra: Algebra
    basis: tuple[Multivector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def class_symbol_algebra(ring: RingPresentation) -> Algebra:
    """Exterior algebra on one degree-1 symbol per H^1 basis class."""
    labels = ring.labels(1)
    ok = all(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", s) for s in labels)
    if not ok or len(set(labels)) != len(labels):
        labels = tuple(f"a{i}" for i in range(len(labels)))
    return Algebra([(s, 1) for s in labels])


def characteristic_subspace(ring: RingPresentation) -> CharacteristicSubspace:
    if ring.max_degree < 2:
        raise CutoffError("characteristic subspace needs cutoff >= 2")
    alg = class_symbol_algebra(ring)
    b1 = ring.dim(1)
    pairs = alg.basis(2)
    cols: list[Vec] = []
    for mono in pairs:
        i, j = mono
        cols.append(ring.product_coords(1, i, 1, j))
    mat = SparseMatrix(ring.dim(2), len(pairs), cols)
    basis = tuple(
        alg.from_coordinates(2, [vec.get(k, Fraction(0)) for k in range(len(pairs))])
        for vec in mat.kernel()
    )
    return CharacteristicSubspace(ring, alg, basis)
