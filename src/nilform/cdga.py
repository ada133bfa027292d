"""Commutative differential graded algebras and their cohomology.

A CDGA here is a free graded-commutative algebra with a degree ``+1``
differential satisfying the graded Leibniz rule and ``d(d(v)) = 0``.
Cohomology is computed per degree with exact rational arithmetic and comes
with deterministic class representatives and a linear reduction map onto
class coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .gca import Algebra, AlgebraError, DegreeError, Generator, Monomial, Multivector
from .linalg import Echelon, Row, SparseMatrix, Vec, row_primitive


class NotADifferential(ValueError):
    """d fails to square to zero; carries the offending generator and residual."""

    def __init__(self, name: str, residual: Multivector):
        self.generator = name
        self.residual = residual
        super().__init__(f"d(d({name})) = {residual} is nonzero")


class NotACocycle(ValueError):
    """An operation required d(v) = 0."""


class CDGA:
    """Free CDGA with a validated differential.

    ``differential`` maps generator names to their images, given as
    multivectors of the same algebra or as parseable expression strings.
    Unlisted generators are closed.
    """

    def __init__(
        self,
        algebra: Algebra,
        differential: Mapping[str, Multivector | str] | None = None,
        *,
        check: bool = True,
    ):
        self.algebra = algebra
        self._d_gen: dict[int, Multivector] = {}
        for name, value in (differential or {}).items():
            idx = algebra.index_of(name)
            if isinstance(value, str):
                value = algebra.parse(value)
            if value.algebra != algebra:
                raise AlgebraError(f"d({name}) lives in a different algebra")
            if not value.is_zero():
                self._d_gen[idx] = value
        self._d_mono_cache: dict[Monomial, Multivector] = {}
        self._matrix_cache: dict[int, SparseMatrix] = {}
        self._cohomology_cache: dict[int, CohomologyBasis] = {}
        # structure constants of H*, (qa, ia, qb, ib) -> class coordinates,
        # shared by every ring presentation of this CDGA
        self._class_products: dict[tuple[int, int, int, int], Vec] = {}
        if check:
            self.validate()

    # -- validation ------------------------------------------------------

    def validate(self) -> CDGA:
        """Check degrees and d^2 = 0; returns self, raises otherwise."""
        alg = self.algebra
        for idx, value in self._d_gen.items():
            gen = alg.generators[idx]
            if value.degree != gen.degree + 1:
                raise DegreeError(
                    f"d({gen.name}) has degree {value.degree}, expected {gen.degree + 1}"
                )
        for idx in self._d_gen:
            gen = alg.generators[idx]
            residual = self.d(self._d_gen[idx])
            if not residual.is_zero():
                raise NotADifferential(gen.name, residual)
        return self

    @property
    def is_minimal(self) -> bool:
        """True when every differential value is a sum of products of generators."""
        return all(
            all(len(m) >= 2 for m in v.terms) for v in self._d_gen.values()
        )

    def differential(self) -> dict[str, Multivector]:
        """Nonzero generator images, keyed by name in declaration order."""
        return {
            self.algebra.generators[i].name: self._d_gen[i]
            for i in sorted(self._d_gen)
        }

    # -- the differential ------------------------------------------------

    def d_generator(self, name: str) -> Multivector:
        idx = self.algebra.index_of(name)
        return self._d_gen.get(idx, self.algebra.zero())

    def _d_terms(self, mono: Monomial) -> dict[Monomial, Fraction]:
        """Terms of d(mono) by the Leibniz rule, summed in a fixed order."""
        alg = self.algebra
        product = alg.monomial_product
        out: dict[Monomial, Fraction] = {}
        sign = 1
        for pos, idx in enumerate(mono):
            dg = self._d_gen.get(idx)
            if dg is not None:
                left, right = mono[:pos], mono[pos + 1 :]
                for m, c in dg.terms.items():
                    head = product(left, m)
                    if head is None:
                        continue
                    whole = product(head[1], right)
                    if whole is None:
                        continue
                    key = whole[1]
                    v = out.get(key, 0) + sign * head[0] * whole[0] * c
                    if v:
                        out[key] = v
                    else:
                        del out[key]
            if alg._parity[idx]:
                sign = -sign
        return out

    def _d_monomial(self, mono: Monomial) -> Multivector:
        cached = self._d_mono_cache.get(mono)
        if cached is None:
            cached = Multivector(self.algebra, self._d_terms(mono))
            self._d_mono_cache[mono] = cached
        return cached

    def d(self, v: Multivector) -> Multivector:
        """Leibniz extension of the generator differential."""
        out = self.algebra.zero()
        for mono, c in v.terms.items():
            out = out + self._d_monomial(mono).scale(c)
        return out

    def is_cocycle(self, v: Multivector) -> bool:
        return self.d(v).is_zero()

    # -- matrices and cohomology -----------------------------------------

    def differential_matrix(self, q: int) -> SparseMatrix:
        """Matrix of d from basis(q) to basis(q+1), column-major."""
        cached = self._matrix_cache.get(q)
        if cached is not None:
            return cached
        alg = self.algebra
        domain = alg.basis(q)
        target_index = alg.basis_index(q + 1)
        cols: list[Vec] = []
        for mono in domain:
            # not through the d(mono) cache: the columns already hold the images
            img = self._d_terms(mono)
            cols.append({target_index[m]: c for m, c in img.items()})
        mat = SparseMatrix(len(target_index), len(domain), cols)
        self._matrix_cache[q] = mat
        return mat

    def cohomology(self, q: int) -> CohomologyBasis:
        cached = self._cohomology_cache.get(q)
        if cached is not None:
            return cached
        basis = CohomologyBasis(self, q)
        self._cohomology_cache[q] = basis
        return basis

    def betti(self, q: int) -> int:
        return self.cohomology(q).dim

    def betti_numbers(self, q_max: int) -> list[int]:
        return [self.betti(q) for q in range(q_max + 1)]

    def is_coboundary(self, v: Multivector) -> Multivector | None:
        """A primitive u with d(u) = v, or None; v must be a cocycle."""
        if v.is_zero():
            return self.algebra.zero()
        if not self.is_cocycle(v):
            raise NotACocycle(f"{v} is not closed")
        q = v.degree
        coords = dict_coords(self.algebra, v, q)
        image = Echelon(self.algebra.dim(q), track=True)
        for col in self.differential_matrix(q - 1).cols:
            image.add(col)
        coeffs = image.express(coords)
        if coeffs is None:
            return None
        out = self.algebra.zero()
        for mono, c in zip(self.algebra.basis(q - 1), coeffs):
            if c:
                out = out + self.algebra.monomial(mono).scale(c)
        return out


def dict_coords(alg: Algebra, v: Multivector, q: int) -> Vec:
    """Sparse coordinate dict of a homogeneous element over basis(q)."""
    index = alg.basis_index(q)
    out: Vec = {}
    for mono, c in v.terms.items():
        pos = index.get(mono)
        if pos is None:
            raise DegreeError(f"term outside degree {q}")
        out[pos] = c
    return out


class CohomologyBasis:
    """Deterministic basis of H^q with exact reduction onto class coordinates.

    The representatives are the reduced echelon basis of the cocycles that
    vanish at every pivot of the coboundary space: primitive integer rows
    with strictly increasing least-index pivots, each zero at the others'
    pivots.  They are read off one row reduction of d_q: eliminated with
    its columns in reverse order, the equations d_q(z) = 0 pivot on their
    last columns, and every free column f gives the null vector
    k_f = e_f - sum R[f]/R[p] e_p over the reduced rows R with pivot p.
    Each R is zero right of its pivot, so k_f is zero left of f and at the
    other free columns: the k_f are the reduced echelon basis of Z^q.  The
    image B^q lies in Z^q, so its pivots are free columns too, and the k_f
    with f not among them are the representatives.

    ``coordinates`` is the induced linear map onto class coordinates, read
    at pivots: reduced modulo the image, a cocycle w is sum c_i rep_i, and
    only rep_i is nonzero at its pivot p_i, so c_i = w[p_i] / rep_i[p_i].
    ``reduction`` lists them densely.  The basis keeps the algebra and the
    differential out of degree q, not the CDGA, so a dropped CDGA and its
    cached bases are freed without the cyclic garbage collector.
    """

    def __init__(self, cdga: CDGA, degree: int):
        self.algebra = alg = cdga.algebra
        self.degree = degree
        self._d = cdga.differential_matrix(degree)
        self._image = Echelon(alg.dim(degree))
        for col in cdga.differential_matrix(degree - 1).cols:
            self._image.add(col)
        basis = alg.basis(degree)
        rows = self._cocycle_rows()
        self.representatives = tuple(
            Multivector(alg, {basis[j]: Fraction(row[j]) for j in sorted(row)})
            for _, row in rows
        )
        # pivot -> (class index, entry of the representative there)
        self._at_pivot = {f: (i, row[f]) for i, (f, row) in enumerate(rows)}

    def _cocycle_rows(self) -> list[tuple[int, Row]]:
        """(f, primitive k_f) for the free columns f that are not image pivots."""
        n = self._d.ncols
        last = n - 1
        # the rows of d_q with column j at last - j, so each pivots on its last column
        eqs: dict[int, Vec] = {}
        for j, col in enumerate(self._d.cols):
            for i, v in col.items():
                eqs.setdefault(i, {})[last - j] = v
        ech = Echelon(n)
        for i in sorted(eqs):
            ech.add(eqs[i])
        # column f -> (pivot, R[f], R[pivot]) over the reduced rows R holding f
        entries: dict[int, list[tuple[int, int, int]]] = {}
        for p, row in zip(ech.pivots, ech.rows):
            lead = row[p]
            for j, v in row.items():
                if j != p:
                    entries.setdefault(last - j, []).append((last - p, v, lead))
        skip = {last - p for p in ech.pivots}
        skip.update(self._image.pivots)
        out: list[tuple[int, Row]] = []
        for f in range(n):
            if f in skip:
                continue
            terms = entries.get(f, ())
            scale = lcm(*(lead for _, _, lead in terms))
            k = {f: scale}
            for p, v, lead in terms:
                k[p] = -v * (scale // lead)
            out.append((f, row_primitive(k)))
        return out

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coordinates(self, v: Multivector) -> Vec:
        """Sparse class coordinates of a cocycle, in increasing class order."""
        coords = dict_coords(self.algebra, v, self.degree)
        if self._d.apply(coords):
            raise NotACocycle(f"{v} is not closed")
        w = self._image.reduce(coords)[0]
        at = self._at_pivot
        return {at[p][0]: w[p] / at[p][1] for p in sorted(p for p in w if p in at)}

    def reduction(self, v: Multivector) -> list[Fraction]:
        """Dense class coordinates of a cocycle, checked against the representatives."""
        out = [Fraction(0)] * self.dim
        for i, c in self.coordinates(v).items():
            out[i] = c
        left = v - self.class_of(out)
        if not self._image.contains(dict_coords(self.algebra, left, self.degree)):
            raise RuntimeError("reduction did not terminate on a cocycle")
        return out

    def class_of(self, coeffs: Sequence[Fraction | int]) -> Multivector:
        """Cocycle representative with the given class coordinates."""
        out = self.algebra.zero()
        for c, rep in zip(coeffs, self.representatives):
            if c:
                out = out + rep.scale(Fraction(c))
        return out


def hirsch_extend(
    base: CDGA,
    additions: Iterable[tuple[Generator | tuple | str, Multivector | str]],
) -> CDGA:
    """Adjoin free generators with closed transgressions from the base.

    Each addition is ``(generator, t)`` with ``d(new) = t`` and ``t`` a
    cocycle of the base whose degree exceeds the new generator's by one.
    A bare name infers the degree from the transgression.
    """
    alg = base.algebra
    new_gens: list[Generator] = []
    trans: list[Multivector] = []
    for spec, t in additions:
        if isinstance(t, str):
            t = alg.parse(t)
        if isinstance(spec, str):
            if t.is_zero():
                raise DegreeError(f"degree of {spec!r} cannot be inferred from a zero transgression")
            spec = Generator(spec, t.degree - 1)
        elif not isinstance(spec, Generator):
            spec = Generator(*spec)
        if not t.is_zero() and t.degree != spec.degree + 1:
            raise DegreeError(
                f"transgression of {spec.name!r} has degree {t.degree}, expected {spec.degree + 1}"
            )
        if not base.is_cocycle(t):
            raise NotACocycle(f"transgression of {spec.name!r} is not closed")
        new_gens.append(spec)
        trans.append(t)

    extended = Algebra(list(alg.generators) + new_gens)
    differential: dict[str, Multivector] = {
        alg.generators[i].name: Multivector(extended, dict(v.terms))
        for i, v in base._d_gen.items()
    }
    for gen, t in zip(new_gens, trans):
        differential[gen.name] = Multivector(extended, dict(t.terms))
    return CDGA(extended, differential)


def tensor(a: CDGA, b: CDGA) -> CDGA:
    """Tensor product CDGA; clashing names from the right factor gain primes."""
    taken = {g.name for g in a.algebra.generators}
    renamed: list[Generator] = []
    for g in b.algebra.generators:
        name = g.name
        while name in taken:
            name += "'"
        taken.add(name)
        renamed.append(Generator(name, g.degree, g.word))
    combined = Algebra(list(a.algebra.generators) + renamed)
    offset = len(a.algebra.generators)
    differential: dict[str, Multivector] = {
        a.algebra.generators[i].name: Multivector(combined, dict(v.terms))
        for i, v in a._d_gen.items()
    }
    for i, v in b._d_gen.items():
        shifted = {tuple(offset + j for j in mono): c for mono, c in v.terms.items()}
        differential[renamed[i].name] = Multivector(combined, shifted)
    return CDGA(combined, differential)
