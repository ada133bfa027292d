"""Degree-1 resonance varieties of truncated cohomology rings.

For a degree-1 class w the maps given by multiplication with w form a
cochain complex on the ring; resonance asks how much cohomology that
complex has.  Membership at a rational point is decided exactly.  For the
first resonance variety in degree one there is a full decision procedure:
triviality reduces to a homogeneous quadric system on the characteristic
subspace having only the zero solution, which is settled by a Groebner
basis computation, and nontriviality is certified by a decomposable
witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian
from typing import Iterator, Sequence

from .gca import Monomial, Multivector
from .linalg import SparseMatrix, Vec
from .ring import (
    CharacteristicSubspace,
    CutoffError,
    RingPresentation,
    characteristic_subspace,
    class_symbol_algebra,
)

Point = tuple[Fraction, ...]

# characteristic subspaces up to this dimension get the exact Groebner decision
EXACT_BOUND = 6
# grid and random candidates tried for a rational decomposable witness
WITNESS_BUDGET = 400


def point_from_expression(ring: RingPresentation, text: str) -> Point:
    """Parse a degree-1 point like ``x1 + 2*y2`` over the class symbols."""
    alg = class_symbol_algebra(ring)
    v = alg.parse(text)
    if v.is_zero():
        return tuple(Fraction(0) for _ in range(ring.dim(1)))
    if v.degree != 1:
        raise ValueError(f"point expression must be degree 1, got {v.degree}")
    return tuple(alg.coordinates(v, 1))


def multiplication_complex(ring: RingPresentation, w: Sequence[Fraction], q: int) -> SparseMatrix:
    """Matrix of multiplication by the degree-1 class w from H^q to H^q+1."""
    if q + 1 > ring.max_degree:
        raise CutoffError(f"need degree {q + 1} but cutoff is {ring.max_degree}")
    sparse_w = {i: Fraction(c) for i, c in enumerate(w) if c}
    cols: list[Vec] = []
    for j in range(ring.dim(q)):
        cols.append(ring.multiply_coords(1, sparse_w, q, {j: Fraction(1)}))
    return SparseMatrix(ring.dim(q + 1), ring.dim(q), cols)


def mu_complex_dim(ring: RingPresentation, w: Sequence[Fraction], q: int) -> int:
    """Cohomology dimension of the multiplication complex at degree q."""
    if q < 0:
        raise ValueError("degree must be nonnegative")
    outgoing = multiplication_complex(ring, w, q)
    kernel = ring.dim(q) - outgoing.rank()
    if q == 0:
        return kernel
    incoming = multiplication_complex(ring, w, q - 1)
    return kernel - incoming.rank()


def in_resonance(ring: RingPresentation, w: Sequence[Fraction], q: int, k: int = 1) -> bool:
    """Exact membership of w in the depth-k resonance variety in degree q."""
    if k < 1:
        raise ValueError("depth must be >= 1")
    return mu_complex_dim(ring, w, q) >= k


# -- the degree-1 decision procedure ------------------------------------


@dataclass(frozen=True)
class QuadricSystem:
    """Coefficient forms of omega^2 over the characteristic subspace.

    A candidate omega = sum c_a k_a squares to zero exactly when every form
    vanishes; each form is indexed by a degree-4 monomial of the class
    symbol algebra and is stored as an upper-triangular quadratic form in
    the coefficients c_a.
    """

    subspace: CharacteristicSubspace
    monomials: tuple[Monomial, ...]
    forms: tuple[dict[tuple[int, int], Fraction], ...]

    def value(self, index: int, coeffs: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for (a, b), c in self.forms[index].items():
            total += c * coeffs[a] * coeffs[b]
        return total


def r11_quadric_system(subspace: CharacteristicSubspace) -> QuadricSystem:
    kbasis = subspace.basis
    m = len(kbasis)
    products: dict[tuple[int, int], Multivector] = {}
    for a in range(m):
        for b in range(a, m):
            products[(a, b)] = kbasis[a] * kbasis[b]
    support: set[Monomial] = set()
    for v in products.values():
        support.update(v.terms)
    monomials = tuple(sorted(support))
    forms = []
    for mono in monomials:
        form: dict[tuple[int, int], Fraction] = {}
        for (a, b), v in products.items():
            c = v.coefficient(mono)
            if not c:
                continue
            form[(a, b)] = c if a == b else 2 * c
        forms.append(form)
    return QuadricSystem(subspace, monomials, tuple(forms))


@dataclass(frozen=True)
class ResonanceWitness:
    """Nonzero decomposable element of the characteristic subspace.

    omega = alpha ^ beta in the class symbol algebra; the coordinates of
    alpha are a point of the degree-1 resonance variety.
    """

    omega: Multivector
    alpha: Multivector
    beta: Multivector
    point: Point


@dataclass(frozen=True)
class R11Verdict:
    kind: str  # "trivial" | "witness" | "inconclusive"
    witness: ResonanceWitness | None
    detail: str
    nontrivial_certified: bool = False


def _decompose_rank_two(omega: Multivector) -> tuple[Multivector, Multivector]:
    """Split a nonzero omega with omega^2 = 0 as alpha ^ beta."""
    alg = omega.algebra
    n = len(alg.generators)
    entry: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in omega.terms.items():
        entry[(i, j)] = c
        entry[(j, i)] = -c
    pivot = min((i, j) for (i, j) in omega.terms)
    i0, j0 = pivot
    scale = entry[(i0, j0)]
    beta = alg.from_coordinates(1, [entry.get((i, j0), Fraction(0)) for i in range(n)])
    alpha = alg.from_coordinates(
        1, [entry.get((i, i0), Fraction(0)) / scale for i in range(n)]
    )
    if alpha * beta != omega:
        raise RuntimeError("rank-2 decomposition failed")
    return alpha, beta


def _small_vectors(dim: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Deterministic sweep of small integer vectors, increasing sup norm."""
    count = 0
    radius = 1
    while count < budget:
        for vec in cartesian(range(-radius, radius + 1), repeat=dim):
            if max((abs(v) for v in vec), default=0) != radius:
                continue
            yield vec
            count += 1
            if count >= budget:
                return
        radius += 1


def _zero_locus_is_origin(forms: Sequence[dict[tuple[int, int], Fraction]], m: int) -> bool:
    """Exact test that homogeneous quadrics vanish simultaneously only at 0.

    Uses a Groebner basis: a homogeneous ideal cuts out exactly the origin
    over the algebraic closure iff every variable has a pure power among
    the leading monomials.  The forms are upper triangular, as in
    :class:`QuadricSystem`.
    """
    from sympy.polys.domains import QQ
    from sympy.polys.groebnertools import groebner
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import ring

    R = ring(f"c0:{m}", QQ, grevlex)[0]
    polys = []
    for form in forms:
        terms = {}
        for (a, b), c in form.items():
            exponents = [0] * m
            exponents[a] += 1
            exponents[b] += 1
            terms[tuple(exponents)] = c
        if p := R(terms):
            polys.append(p)
    if not polys:
        return False
    leading = [g.LM for g in groebner(polys, R)]
    return all(any(0 < lm[i] == sum(lm) for lm in leading) for i in range(m))


def decide_r11_trivial(ring: RingPresentation, *, seed: int = 0) -> R11Verdict:
    """Decide whether the degree-1 resonance variety is just the origin.

    Triviality is certified exactly through the quadric system on the
    characteristic subspace when its dimension is within ``EXACT_BOUND``.
    Nontriviality is certified by a rational decomposable witness; when the
    locus is provably nontrivial but no rational witness shows up within
    the search budget the verdict stays inconclusive.
    """
    subspace = characteristic_subspace(ring)
    m = subspace.dim
    if m == 0:
        return R11Verdict("trivial", None, "characteristic subspace is zero")
    system = r11_quadric_system(subspace)

    certified: bool | None = None
    if m <= EXACT_BOUND:
        certified = _zero_locus_is_origin(system.forms, m)
        if certified:
            return R11Verdict(
                "trivial",
                None,
                f"quadric system on a {m}-dimensional subspace has only the zero solution",
            )

    witness = _search_witness(ring, subspace, system, seed)
    if witness is not None:
        return R11Verdict(
            "witness",
            witness,
            "decomposable element found",
            nontrivial_certified=certified is False,
        )
    if certified is False:
        return R11Verdict(
            "inconclusive",
            None,
            "nontrivial over the algebraic closure but no rational witness "
            f"within budget {WITNESS_BUDGET}",
            nontrivial_certified=True,
        )
    return R11Verdict(
        "inconclusive",
        None,
        f"subspace dimension {m} above exact bound {EXACT_BOUND}; "
        f"sampling found no witness within budget {WITNESS_BUDGET}",
    )


def _search_witness(
    ring: RingPresentation,
    subspace: CharacteristicSubspace,
    system: QuadricSystem,
    seed: int,
) -> ResonanceWitness | None:
    m = subspace.dim
    nforms = len(system.forms)

    def attempt(coeffs: Sequence[Fraction]) -> ResonanceWitness | None:
        if all(c == 0 for c in coeffs):
            return None
        if any(system.value(i, coeffs) != 0 for i in range(nforms)):
            return None
        omega = subspace.algebra.zero()
        for c, k in zip(coeffs, subspace.basis):
            if c:
                omega = omega + k.scale(c)
        if omega.is_zero():
            return None
        alpha, beta = _decompose_rank_two(omega)
        point = tuple(subspace.algebra.coordinates(alpha, 1))
        if not in_resonance(ring, point, 1, 1):
            raise RuntimeError("witness failed independent resonance check")
        return ResonanceWitness(omega, alpha, beta, point)

    grid_budget = min(WITNESS_BUDGET, 3**m + 5**min(m, 3))
    for raw in _small_vectors(m, grid_budget):
        found = attempt(tuple(Fraction(v) for v in raw))
        if found:
            return found
    rng = random.Random(seed)
    for _ in range(WITNESS_BUDGET):
        coeffs = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)
        )
        found = attempt(coeffs)
        if found:
            return found
    return None


def find_resonance_point(
    ring: RingPresentation,
    q: int,
    k: int = 1,
    *,
    seed: int = 0,
    budget: int = 60,
) -> Point | None:
    """Sampled search for a point of the degree-q, depth-k resonance variety.

    Any returned point is verified exactly; None proves nothing.
    """
    b1 = ring.dim(1)
    if b1 == 0:
        return None
    grid_budget = min(budget, 3**min(b1, 6))
    for raw in _small_vectors(b1, grid_budget):
        point = tuple(Fraction(v) for v in raw)
        if in_resonance(ring, point, q, k):
            return point
    rng = random.Random(seed)
    for _ in range(budget):
        point = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(b1))
        if in_resonance(ring, point, q, k):
            return point
    return None


def _factor_complex_dim(ring: RingPresentation, w: Sequence[Fraction], q: int) -> int:
    """mu_complex_dim extended by the vanishing range of the source algebra.

    Degrees beyond the top degree of an odd-generator source contribute
    nothing; inside the cutoff the exact computation applies; anything else
    raises, since the ring presentation cannot see that far.
    """
    top = ring.source.algebra.top_degree()
    if top is not None and q > top:
        return 0
    if q + 1 <= ring.max_degree:
        return mu_complex_dim(ring, w, q)
    if top is not None and q + 1 > top and q <= ring.max_degree:
        # outgoing map lands in a zero group
        kernel = ring.dim(q)
        if q == 0:
            return kernel
        return kernel - multiplication_complex(ring, w, q - 1).rank()
    raise CutoffError(f"degree {q} not covered by cutoff {ring.max_degree}")


def kunneth_membership(
    ring_a: RingPresentation,
    ring_b: RingPresentation,
    w_a: Sequence[Fraction],
    w_b: Sequence[Fraction],
    q: int,
    k: int = 1,
) -> bool:
    """Resonance membership of a product point, degree q, depth 1 only.

    The product point lies in the degree-q variety iff some split q = i + j
    puts each factor point in its own degree-i and degree-j varieties.
    Raises when a split falls outside what the factor cutoffs can decide.
    """
    if k != 1:
        raise ValueError("only depth k = 1 is supported for product points")
    if q < 0:
        raise ValueError("degree must be nonnegative")
    for i in range(q + 1):
        if (
            _factor_complex_dim(ring_a, w_a, i) >= 1
            and _factor_complex_dim(ring_b, w_b, q - i) >= 1
        ):
            return True
    return False
