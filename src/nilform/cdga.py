"""Commutative differential graded algebras and their cohomology.

A CDGA here is a free graded-commutative algebra with a degree ``+1``
differential satisfying the graded Leibniz rule and ``d(d(v)) = 0``.
Cohomology is computed per degree with exact rational arithmetic and comes
with deterministic class representatives and a linear reduction map onto
class coordinates.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from typing import Iterable, Mapping, Sequence

from .gca import Algebra, AlgebraError, DegreeError, Generator, Monomial, Multivector
from .linalg import Echelon, Row, SparseMatrix, Vec


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
        # (m, c, -c) per term of d(g), so the Leibniz terms share their coefficients;
        # ints where d(g) is integral, so its differential matrices stay in integers
        self._d_signed = {}
        for i, v in self._d_gen.items():
            terms = v.terms
            if all(c.denominator == 1 for c in terms.values()):
                terms = {m: c.numerator for m, c in terms.items()}
            self._d_signed[i] = [(m, c, -c) for m, c in terms.items()]
        self._matrix_cache: dict[int, SparseMatrix] = {}
        self._cohomology_cache: dict[int, CohomologyBasis] = {}
        # q -> least-index pivots of B^q, one record per degree (`image_pivots`)
        self._image_pivots: dict[int, list[int]] = {}
        self._coboundaries: dict[int, Echelon] = {}
        self._characteristic = None  # ring.characteristic_subspace, no reference back
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
        for idx, value in self._d_gen.items():
            residual = self.d(value)
            if not residual.is_zero():
                raise NotADifferential(alg.generators[idx].name, residual)
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
        """Terms of d(mono) by the Leibniz rule, summed in a fixed order.

        A term m of d(g), g at ``pos``, goes into ``rest`` (mono without g) by
        insertion counts: an odd factor of m already in rest kills it, and the
        sign flips once per odd factor of rest before each odd factor's
        insertion point and, for odd g, once per odd factor before ``pos``.
        """
        parity = self.algebra._parity
        out: dict[Monomial, Fraction] = {}
        for pos, idx in enumerate(mono):
            dg = self._d_signed.get(idx)
            if dg is None:
                continue
            rest = mono[:pos] + mono[pos + 1 :]
            odd = list(accumulate((parity[x] for x in rest), initial=0))
            lead = odd[pos] if parity[idx] else 0
            for m, c, neg in dg:
                flips = lead
                for x in m:
                    if parity[x]:
                        at = bisect_left(rest, x)
                        if at < len(rest) and rest[at] == x:
                            break
                        flips += odd[at]
                else:
                    key = tuple(sorted(rest + m))
                    v = neg if flips % 2 else c
                    prev = out.get(key)
                    if prev is None:
                        out[key] = v
                    elif total := prev + v:
                        out[key] = total
                    else:
                        del out[key]
        return out

    def d(self, v: Multivector) -> Multivector:
        """Leibniz extension of the generator differential, its terms summed in one dict."""
        out: dict[Monomial, Fraction] = {}
        for mono, c in v.terms.items():
            for m, x in self._d_terms(mono).items():
                out[m] = out.get(m, Fraction(0)) + c * x
        return Multivector(self.algebra, out)

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
        cols = [{target_index[m]: c for m, c in self._d_terms(mono).items()} for mono in domain]
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

    def image_pivots(self, q: int) -> list[int]:
        """The least-index pivots of B^q, the image of d_(q-1), recorded once: by the
        row pass of ``cohomology(q - 1)``, else read off the built `coboundaries` (q),
        else off a column echelon of d_(q-1) that is not kept."""
        pivots = self._image_pivots.get(q)
        if pivots is None:
            image = self._coboundaries.get(q) or Echelon(self.differential_matrix(q - 1).cols)
            pivots = self._image_pivots[q] = image.pivots
        return pivots

    def rank(self, q: int) -> int:
        """rank d_q, the number of `image_pivots` (q + 1)."""
        return len(self.image_pivots(q + 1))

    def betti(self, q: int) -> int:
        """dim A^q - rank d_q - rank d_(q-1), from two ranks and no class basis."""
        return self.algebra.dim(q) - self.rank(q) - self.rank(q - 1)

    @cached_property
    def _coordinates(self) -> tuple[frozenset[int], CDGA | None]:
        """`coordinate_model` as (pivots, d' model), with None for self, so
        that nothing cached here refers back to this CDGA."""
        reps = self.cohomology(1).representatives
        pivots = frozenset(min(z.terms)[0] for z in reps)
        if all(len(z.terms) == 1 for z in reps):
            return pivots, None
        alg = self.algebra
        images = [alg.monomial((i,)) for i in range(len(alg.generators))]
        for z in reps:
            ((p,), lead), *rest = sorted(z.terms.items())
            images[p] = Multivector(alg, {(p,): 1, **{m: -v for m, v in rest}}).scale(1 / lead)
        differential = {
            alg.generators[i].name: apply_chain_map(images, v, self)
            for i, v in self._d_gen.items()
            if i not in pivots
        }
        return pivots, CDGA(alg, differential)

    @cached_property
    def wedge_table(self) -> dict[tuple[int, int], Vec]:
        """(i, j) -> z_i z_j reduced modulo B^2 to r / s, over basis(2), for each pair
        i < j of H^1 representatives z; numbers only, no reference back.  The product
        is the integer `product_row`, as for the ring's structure constants.  r / s
        is the one cocycle of its class zero at every pivot of B^2, so the table is
        the cup product on H^1 up to an injective map out of H^2."""
        reps, image = self.cohomology(1).representatives, self.coboundaries(2)
        out: dict[tuple[int, int], Vec] = {}
        for i, j in combinations(range(len(reps)), 2):
            r, scale = image.reduce(product_row(self.algebra, reps[i], reps[j], 2))
            out[(i, j)] = {k: Fraction(v, scale) for k, v in r.items()}
        return out

    def coboundaries(self, q: int) -> Echelon:
        """B^q, the column echelon of d_(q-1), built once and shared; no reader extends it."""
        return _column_echelon(self._coboundaries, self.differential_matrix(q - 1), q)

    def is_coboundary(self, v: Multivector) -> Multivector | None:
        """A u with d(u) = v, or None; v must be a cocycle.

        u is zero at every monomial whose d depends on the d of earlier ones.
        """
        if v.is_zero():
            return self.algebra.zero()
        if not self.is_cocycle(v):
            raise NotACocycle(f"{v} is not closed")
        q = v.degree
        d = self.differential_matrix(q - 1)
        [x] = d.solve([dict_coords(self.algebra, v, q)])
        if x is None:
            return None
        return self.algebra.from_coordinates(q - 1, [x.get(j, 0) for j in range(d.ncols)])


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


def product_row(alg: Algebra, a: Multivector, b: Multivector, q: int) -> Row:
    """Integer coordinates over basis(q) of a b, for homogeneous a and b of
    total degree q with integral coefficients, such as class representatives.

    Keys come in the order of the first term reaching them, as in a
    ``Multivector`` product, and a sum that cancels stays as a zero entry.
    """
    index = alg.basis_index(q)
    out: Row = {}
    for ma, ca in a.terms.items():
        ca = ca.numerator
        for mb, cb in b.terms.items():
            m = alg.monomial_product(ma, mb)
            if m is not None:
                k = index[m[1]]
                out[k] = out.get(k, 0) + m[0] * ca * cb.numerator
    return out


def apply_chain_map(images: Sequence[Multivector], v: Multivector, target: CDGA) -> Multivector:
    """Multiplicative extension of generator images to a multivector."""
    unit = target.algebra.one()
    out = unit.scale(0)
    for mono, c in sorted(v.terms.items()):
        cur = unit
        for i in mono:
            cur = cur * images[i]
        out = out + cur.scale(c)
    return out


def coordinate_model(c: CDGA) -> tuple[frozenset[int], CDGA]:
    """The pivots p_i, least indices of the H^1 representatives z_i, and a
    model of d' = phi d phi^-1, for ranks only: phi makes each z_i = c_i
    e_(p_i) + n_i, n_i in the span of the other generators N, a generator.

    phi substitutes (e_(p_i) - n_i) / c_i for e_(p_i) in each d(g), g in N,
    and d'(e_(p_i)) = 0.  It fixes N, so it maps P_q, the span of the q-fold
    wedges of the z_i, onto the monomials in the pivots alone, R^q, and the
    ideal of N onto the other monomials, I^q.  The model is ``c`` when each
    z_i is a generator, else a CDGA on the same algebra, d' maybe fractional.
    """
    pivots, model = c._coordinates
    return pivots, c if model is None else model


def _column_echelon(cache: dict[int, Echelon], d: SparseMatrix, q: int) -> Echelon:
    """cache[q], first set to the column echelon of d."""
    if q not in cache:
        cache[q] = Echelon(d.cols)
    return cache[q]


def _row_pass(d: SparseMatrix) -> tuple[Echelon, list[int]]:
    """Echelon of the rows of d in increasing order, column j at ncols-1-j,
    and the rows that raised its rank: the least-index pivots of d's image."""
    last = d.ncols - 1
    eqs: dict[int, Vec] = {}
    for j, col in enumerate(d.cols):
        for i, v in col.items():
            eqs.setdefault(i, {})[last - j] = v
    ech = Echelon()
    return ech, [i for i in sorted(eqs) if ech.add(eqs[i])]


def cocycle_rows(d: SparseMatrix, skip: Iterable[int] = ()) -> tuple[list[tuple[int, Row]], list[int]]:
    """(f, primitive k_f, positive at f) for each free column f of d not in ``skip``:
    the reduced echelon basis of ker d, least-index pivots first; and the rows of d
    that raised the rank of its `_row_pass`.  The equations, columns reversed, pivot
    on their last columns, so each k_f of ``Echelon.null_vectors`` is zero left of f
    and at the other free columns: the one such basis, whatever d's row order."""
    ech, raised = _row_pass(d)
    last, skip = d.ncols - 1, set(skip)
    columns = [last - f for f in range(last + 1) if f not in skip]
    rows = [(last - j, {last - i: v for i, v in k.items()}) for j, k in ech.null_vectors(columns)]
    return rows, raised


class CohomologyBasis:
    """Deterministic basis of H^q with exact reduction onto class coordinates.

    The representatives are the reduced echelon basis of the cocycles that
    vanish at every pivot of the coboundary space: primitive integer rows
    with strictly increasing least-index pivots, each zero at the others'
    pivots.  They are read off one row reduction of d_q, `cocycle_rows`,
    whose k_f, one per free column f, are the reduced echelon basis of
    Z^q.  The image B^q lies in Z^q, so its pivots are free columns too,
    and the k_f with f not among them are the representatives.

    Each d is eliminated once: the pivots of B^q are the rows of d_(q-1)
    that raise the rank in increasing order (the pivot columns of RREF(D^T)
    are the columns of D^T, the rows of D, independent of earlier ones).
    Degree q-1 records them on the CDGA, else `CDGA.image_pivots` reads them
    off a column echelon.  ``_image`` is B^q, the CDGA's shared `coboundaries`
    (q), read lazily.

    ``coordinates`` is the induced linear map onto class coordinates, read
    at pivots: reduced modulo the image, a cocycle w is sum c_i rep_i, and
    only rep_i is nonzero at its pivot p_i, so c_i = w[p_i] / rep_i[p_i].
    The reduction is fraction-free, so that is one division per class.
    ``reduction`` lists them densely.  The basis keeps the algebra and the
    differentials into and out of degree q, not the CDGA, so a dropped CDGA
    and its cached bases are freed without the cyclic garbage collector.
    """

    def __init__(self, cdga: CDGA, degree: int):
        self.algebra = alg = cdga.algebra
        self.degree = degree
        self._d = cdga.differential_matrix(degree)
        self._d_prev = cdga.differential_matrix(degree - 1)
        self._coboundaries = cdga._coboundaries
        image_pivots = cdga.image_pivots(degree)
        rows, cdga._image_pivots[degree + 1] = cocycle_rows(self._d, image_pivots)
        basis = alg.basis(degree)
        self.representatives = tuple(
            Multivector(alg, {basis[j]: Fraction(row[j]) for j in sorted(row)})
            for _, row in rows
        )
        # pivot -> (class index, entry of the representative there)
        self._at_pivot = {f: (i, row[f]) for i, (f, row) in enumerate(rows)}

    @cached_property
    def _image(self) -> Echelon:
        """B^q, the CDGA's `coboundaries` (q), read on the first reduction."""
        return _column_echelon(self._coboundaries, self._d_prev, self.degree)

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coordinates(self, v: Multivector) -> Vec:
        """Sparse class coordinates of a cocycle, in increasing class order."""
        coords = dict_coords(self.algebra, v, self.degree)
        if self._d.apply(coords):
            raise NotACocycle(f"{v} is not closed")
        return self._classes(coords)

    def _classes(self, coords: Vec | Row) -> Vec:
        """``coordinates`` of a cocycle given over basis(q), with int or Fraction entries.

        One fraction-free reduction gives the residual r / s, and class i,
        with pivot p_i, is r[p_i] / (s rep_i[p_i]).
        """
        r, scale = self._image.reduce(coords)
        at = self._at_pivot
        out: Vec = {}
        for p in sorted(p for p in r if p in at):
            i, lead = at[p]
            out[i] = Fraction(r[p], scale * lead)
        return out

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


def hirsch_extend(base: CDGA, additions: Iterable[tuple[Generator, Multivector]]) -> CDGA:
    """Adjoin free generators with closed transgressions from the base.

    Each addition is ``(generator, t)`` with ``d(new) = t`` and ``t`` a
    cocycle of the base whose degree exceeds the new generator's by one.
    """
    alg = base.algebra
    new_gens: list[Generator] = []
    trans: list[Multivector] = []
    for gen, t in additions:
        if not t.is_zero() and t.degree != gen.degree + 1:
            raise DegreeError(
                f"transgression of {gen.name!r} has degree {t.degree}, expected {gen.degree + 1}"
            )
        if not base.is_cocycle(t):
            raise NotACocycle(f"transgression of {gen.name!r} is not closed")
        new_gens.append(gen)
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
        renamed.append(Generator(name, g.degree))
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
