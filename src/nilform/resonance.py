"""Degree-1 resonance varieties of truncated cohomology rings.

For a degree-1 class w the maps given by multiplication with w form a
cochain complex on the ring, as w^2 = 0; resonance asks how much cohomology
that complex has.  Membership at a rational point is decided exactly.  The
ranks over Q into and out of a degree e sum to at most b_e, and an F_p rank
is at most the rank over Q, so where the F_p ranks sum to b_e (e is F_p-exact)
both are exact.  For the first resonance variety in degree one there is a full
decision procedure: triviality reduces to a homogeneous quadric system on the
characteristic subspace having only the zero solution, which a full-rank
Macaulay matrix over F_p certifies and a Groebner basis computation settles
otherwise, and nontriviality is certified by a decomposable witness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from itertools import product as cartesian
from math import gcd, lcm
from typing import Container, Iterator, NamedTuple, Sequence

from .cdga import CDGA
from .gca import Monomial, Multivector
from .linalg import Poly, Row, groebner_leads, pivots_mod_p, poly_value, rank_rows, to_int_row
from .ring import (
    CharacteristicSubspace,
    CutoffError,
    RingPresentation,
    characteristic_subspace,
    class_symbol_algebra,
    from_cdga,
)

Point = tuple[Fraction, ...]

# characteristic subspaces up to this dimension get the exact Groebner decision
EXACT_BOUND = 6
# grid and random candidates tried for a rational decomposable witness
WITNESS_BUDGET = 400


def point_from_expression(ring: RingPresentation, text: str) -> Point:
    """Parse a degree-1 point like ``x1 + 2*y2`` over the class symbols."""
    alg = class_symbol_algebra(ring.source)
    v = alg.parse(text)
    if v.is_zero():
        return tuple(Fraction(0) for _ in range(ring.dim(1)))
    if v.degree != 1:
        raise ValueError(f"point expression must be degree 1, got {v.degree}")
    return tuple(alg.coordinates(v, 1))


def multiplication_complex(
    ring: RingPresentation, w: Sequence[Fraction], q: int, skip: Container[int] = ()
) -> list[Row]:
    """Nonzero integer rows of L times multiplication by w, H^q -> H^q+1, one per class not in ``skip``.

    The pencil sum of (w_i / D_i) (D_i M_i) over the classes i with w_i != 0 (an
    ``int`` or ``Fraction``), D_i M_i the cached integer matrix of class i; L
    clears the w_i / D_i.  Raises ``ValueError`` unless w has b_1 coordinates.
    As w^2 = 0, the rows of map q-1 lie in the left kernel of map q, over Z and
    so mod p; their minor on its F_p pivot columns P is nonzero mod p, hence
    over Q, so with the classes off P they span H^q, and skipping P keeps both
    ranks of map q.
    """
    if q + 1 > ring.max_degree:
        raise CutoffError(f"need degree {q + 1} but cutoff is {ring.max_degree}")
    if len(w) != ring.dim(1):
        raise ValueError(f"point has {len(w)} coordinates but b_1 = {ring.dim(1)}")
    terms = []
    for i, c in enumerate(w):
        if c:
            denom, rows = ring.class_multiplication(q, i)
            g = gcd(c.numerator, denom)  # w_i / D_i in lowest terms, as w_i is
            terms.append((c.numerator // g, c.denominator * denom // g, rows))
    scale = lcm(1, *(d for _, d, _ in terms))
    keep = [j for j in range(ring.dim(q)) if j not in skip]
    acc: list[Row] = [{} for _ in keep]
    for n, d, rows in terms:
        a = n * (scale // d)
        for out, j in zip(acc, keep):
            for k, v in rows[j].items():
                out[k] = out.get(k, 0) + a * v
    return [r for out in acc if (r := {k: v for k, v in out.items() if v})]


def _complex_dim(ring: RingPresentation, w: Sequence[Fraction], q: int, out_of: list[int]) -> int:
    """b_q minus the ranks of multiplication by w out of each degree in ``out_of``, increasing.

    The memo holds [rows, F_p pivot columns, exact rank or None] per degree.
    ``exact_at(e, ds)`` forms the maps it lacks in increasing degree, map d
    off the pivots of map d-1 when the memo holds it, which keeps its ranks
    (`multiplication_complex`).  A rank is exact when its F_p rank is full or
    an end e of its map d is F_p-exact, as ``exact_at`` marks; a map d tries
    e = q, then d, then d+1 if d+2 is within the cutoff, then Q.
    """
    maps = ring.point_maps(w)

    def exact_at(e: int, ds: list[int]) -> bool:
        for d in ds:
            if d not in maps:
                rows = multiplication_complex(ring, w, d, maps[d - 1][1] if d - 1 in maps else ())
                r = len(pivots := pivots_mod_p(rows))
                maps[d] = [rows, pivots, r if r == min(len(rows), ring.dim(d + 1)) else None]
        if exact := sum(len(maps[d][1]) for d in ds) == ring.dim(e):
            for d in ds:
                maps[d][2] = len(maps[d][1])
        return exact

    exact_at(q, out_of)
    for d in out_of:
        if maps[d][2] is None and not (
            exact_at(d, [e for e in (d - 1, d) if e >= 0])
            or d + 2 <= ring.max_degree and exact_at(d + 1, [d, d + 1])
        ):
            maps[d][2] = rank_rows(maps[d][0])
    return ring.dim(q) - sum(maps[d][2] for d in out_of)


def mu_complex_dim(ring: RingPresentation, w: Sequence[Fraction], q: int) -> int:
    """Cohomology dimension of the multiplication complex (H*, w·) at degree q.

    b_q - rank(w: H^q -> H^q+1) - rank(w: H^q-1 -> H^q) >= 0, as w^2 = 0 puts
    the incoming image inside the outgoing kernel.  A rank is exact when its
    F_p rank is full or an end of its map is F_p-exact; only the others are
    eliminated over Q.  The ring keeps the maps of the latest point only, so a
    sweep over q forms each once.  Raises ``ValueError`` unless w has b_1 coordinates.
    """
    if q < 0:
        raise ValueError("degree must be nonnegative")
    return _complex_dim(ring, w, q, [d for d in (q - 1, q) if d >= 0])


def in_resonance(ring: RingPresentation, w: Sequence[Fraction], q: int, k: int = 1) -> bool:
    """Exact membership of w in the depth-k resonance variety in degree q."""
    if k < 1:
        raise ValueError("depth must be >= 1")
    return mu_complex_dim(ring, w, q) >= k


# -- the degree-1 decision procedure ------------------------------------


class QuadricSystem(NamedTuple):
    """Coefficient forms of omega^2 over the characteristic subspace.

    A candidate omega = sum c_a k_a squares to zero exactly when every form
    vanishes; each form is indexed by a degree-4 monomial of the class
    symbol algebra and is a ``linalg.Poly`` in the coefficients c_a, with
    keys (a, b), a <= b.
    """

    subspace: CharacteristicSubspace
    monomials: tuple[Monomial, ...]
    forms: tuple[Poly, ...]

    def value(self, index: int, coeffs: Sequence[Fraction]) -> Fraction:
        return poly_value(self.forms[index], coeffs)


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
        form: Poly = {}
        for (a, b), v in products.items():
            c = v.coefficient(mono)
            if not c:
                continue
            form[(a, b)] = c if a == b else 2 * c
        forms.append(form)
    return QuadricSystem(subspace, monomials, tuple(forms))


class ResonanceWitness(NamedTuple):
    """Nonzero decomposable element of the characteristic subspace.

    omega = alpha ^ beta in the class symbol algebra; the coordinates of
    alpha are a point of the degree-1 resonance variety.
    """

    omega: Multivector
    alpha: Multivector
    beta: Multivector
    point: Point


class R11Verdict(NamedTuple):
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


def _zero_locus_is_origin(forms: Sequence[Poly], m: int) -> bool:
    """Exact test that homogeneous quadrics vanish simultaneously only at 0.

    The zero locus is taken over the algebraic closure, and the forms are
    ``Poly`` quadrics, as in :class:`QuadricSystem`.  First a certificate:
    for D = 2..m+1 the degree-D Macaulay matrix has a row x^b f_i for each
    form f_i, scaled to a primitive integer polynomial, and each monomial
    x^b of degree D-2, and a column for each monomial of degree D.  Full
    column rank puts every degree-D monomial in the ideal, so the forms
    vanish only at 0.  A rank over F_p is at most the rank over Q, so a full
    rank over F_p is full over Q.  The converse holds over Q at D = m+1
    (Lazard, EUROCAL 1983, LNCS 162), but a prime can lose rank, so a
    deficient F_p rank falls back to a Groebner basis: a homogeneous ideal
    cuts out exactly the origin iff every variable has a pure power among
    the leading monomials.
    """
    rows = [r for form in forms if (r := to_int_row(form))]
    if not rows:
        return False
    for degree in range(2, m + 2):
        shifts = list(combinations_with_replacement(range(m), degree - 2))
        columns = {x: j for j, x in enumerate(combinations_with_replacement(range(m), degree))}
        if len(rows) * len(shifts) < len(columns):
            continue
        macaulay = (
            {columns[tuple(sorted(shift + pair))]: c for pair, c in row.items()}
            for row in rows
            for shift in shifts
        )
        if len(pivots_mod_p(macaulay)) == len(columns):
            return True

    leading = groebner_leads(forms, m)
    return all(any(0 < lm[i] == sum(lm) for lm in leading) for i in range(m))


def decide_r11_trivial(c: CDGA, *, seed: int = 0) -> R11Verdict:
    """Decide whether the degree-1 resonance variety of ``c`` is just the origin.

    Triviality is certified exactly through the quadric system on the
    characteristic subspace when its dimension is within ``EXACT_BOUND``:
    by a full-rank Macaulay matrix over F_p, which is full over Q too, and
    by a Groebner basis only where the F_p rank falls short.
    Nontriviality is certified by a rational decomposable witness; when the
    locus is provably nontrivial but no rational witness shows up within
    the search budget the verdict stays inconclusive.  Only a witness,
    re-checked in ``from_cdga(c, 2)``, builds a ring.
    """
    subspace = characteristic_subspace(c)
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

    witness = _search_witness(c, subspace, system, seed)
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
    c: CDGA,
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
        for x, k in zip(coeffs, subspace.basis):
            if x:
                omega = omega + k.scale(x)
        if omega.is_zero():
            return None
        alpha, beta = _decompose_rank_two(omega)
        point = tuple(subspace.algebra.coordinates(alpha, 1))
        if not in_resonance(from_cdga(c, 2), point, 1, 1):
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

    Any returned point is nonzero and verified exactly; None proves nothing.
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
        if any(point) and in_resonance(ring, point, q, k):
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
        return _complex_dim(ring, w, q, [q - 1] if q else [])
    raise CutoffError(f"degree {q} not covered by cutoff {ring.max_degree}")


def kunneth_membership(
    ring_a: RingPresentation,
    ring_b: RingPresentation,
    w_a: Sequence[Fraction],
    w_b: Sequence[Fraction],
    q: int,
) -> bool:
    """Resonance membership of a product point in degree q, at depth 1.

    The product point lies in the degree-q variety iff some split q = i + j
    puts each factor point in its own degree-i and degree-j varieties.
    Raises when a split falls outside what the factor cutoffs can decide.
    """
    if q < 0:
        raise ValueError("degree must be nonnegative")
    for i in range(q + 1):
        if (
            _factor_complex_dim(ring_a, w_a, i) >= 1
            and _factor_complex_dim(ring_b, w_b, q - i) >= 1
        ):
            return True
    return False
