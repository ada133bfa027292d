"""Partial formality analysis for degree-1-generated minimal models.

The engine combines four independent mechanisms.  Necessary obstructions
come from degree-1 generation of the cohomology ring and from resonance
varieties; a sufficient certificate checks that the ideal of a chosen
complement of the closed generators meets cocycles only in coboundaries;
for 2-step models the generation test is a complete decision; and a
symbolic chain-map solver searches for (or refutes) normalized morphisms
from the degree-1 bigraded model of the cohomology into the model itself.
All verdicts are sound: a failed certificate never becomes a negative
verdict and an unverified search never becomes a positive one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .cdga import CDGA, dict_coords, hirsch_extend
from .gca import Algebra, Generator, Multivector
from .linalg import Echelon, SparseMatrix, Vec
from .resonance import decide_r11_trivial, find_resonance_point
from .ring import (
    CutoffError,
    GenerationVerdict,
    RingPresentation,
    class_symbol_algebra,
    from_cdga,
    generated_in_degree_one_upto,
)

FORMAL = "CertifiedKFormal"
NOT_FORMAL = "CertifiedNotKFormal"
INCONCLUSIVE = "Inconclusive"
OVERALL_FORMAL = "CertifiedFormal"
OVERALL_NOT_FORMAL = "CertifiedNotFormal"

RULES = (
    "generation",
    "resonance",
    "prop-art-certificate",
    "two-step-decision",
    "rationally-abelian",
    "prop-k+2",
    "morphism-solver",
)

# stages the report lets the degree-1 tower grow before it counts as truncated
TOWER_CAP = 6
# unknowns above which the chain-map solver refuses a non-linear system
ELIMINATION_BOUND = 12


class NotTwoStep(ValueError):
    """The differential is not valued in the closed degree-1 part squared."""


class EliminationBoundError(RuntimeError):
    """The symbolic solver refused a system with too many unknowns."""

    def __init__(self, unknowns: int, bound: int, residual: str):
        super().__init__(
            f"elimination over {unknowns} unknowns exceeds the bound {bound}"
        )
        self.unknowns = unknowns
        self.bound = bound
        self.residual = residual


# -- report ---------------------------------------------------------------


@dataclass(frozen=True)
class Evidence:
    """One applied rule with the degree it speaks to and its payload."""

    rule: str
    k: int
    kind: str  # "formal" | "not_formal" | "info"
    detail: str
    data: dict | None = None

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.kind not in ("formal", "not_formal", "info"):
            raise ValueError(f"unknown evidence kind {self.kind!r}")


class FormalityReport:
    """Per-degree trichotomy verdicts with monotone, conflict-free merging."""

    def __init__(self, k_max: int):
        if k_max < 0:
            raise ValueError("k_max must be nonnegative")
        self.k_max = k_max
        self._verdicts = [INCONCLUSIVE] * (k_max + 1)
        self.evidence: list[Evidence] = []
        self.overall = INCONCLUSIVE
        # set when a search bound or the tower's stage cap cut a rule short
        self.bound_exceeded = False

    def verdict(self, k: int) -> str:
        if not 0 <= k <= self.k_max:
            raise ValueError(f"degree {k} outside 0..{self.k_max}")
        return self._verdicts[k]

    def verdicts(self) -> list[str]:
        return list(self._verdicts)

    def mark_formal_upto(self, ev: Evidence) -> None:
        """Every degree up to ``ev.k`` is formal."""
        for j in range(0, min(ev.k, self.k_max) + 1):
            if self._verdicts[j] == NOT_FORMAL:
                raise RuntimeError(
                    f"conflicting certificates: degree {j} is already not formal"
                )
            self._verdicts[j] = FORMAL
        self.evidence.append(ev)

    def mark_not_formal_from(self, ev: Evidence) -> None:
        """Every degree from ``ev.k`` on is not formal."""
        for j in range(max(ev.k, 0), self.k_max + 1):
            if self._verdicts[j] == FORMAL:
                raise RuntimeError(
                    f"conflicting certificates: degree {j} is already formal"
                )
            self._verdicts[j] = NOT_FORMAL
        self.evidence.append(ev)

    def add_info(self, ev: Evidence) -> None:
        self.evidence.append(ev)

    @property
    def best_formal(self) -> int | None:
        best = None
        for k, v in enumerate(self._verdicts):
            if v == FORMAL:
                best = k
        return best

    @property
    def least_not_formal(self) -> int | None:
        for k, v in enumerate(self._verdicts):
            if v == NOT_FORMAL:
                return k
        return None


# -- model preconditions --------------------------------------------------


def _nilpotent_order(c: CDGA) -> list[int] | None:
    """A generator order where each differential uses earlier generators only."""
    n = len(c.algebra.generators)
    support: dict[int, set[int]] = {}
    for i, g in enumerate(c.algebra.generators):
        dv = c.d_generator(g.name)
        support[i] = {j for mono in dv.terms for j in mono}
    placed: set[int] = set()
    order: list[int] = []
    while len(order) < n:
        progress = False
        for i in range(n):
            if i in placed:
                continue
            if support[i] <= placed:
                order.append(i)
                placed.add(i)
                progress = True
        if not progress:
            return None
    return order


def _require_model(c: CDGA) -> None:
    """Reject inputs outside the engine's scope with a clear message."""
    if any(g.degree != 1 for g in c.algebra.generators):
        raise ValueError("model must be generated in degree 1")
    if not c.is_minimal:
        raise ValueError("model must be minimal (decomposable differential)")
    if _nilpotent_order(c) is None:
        raise ValueError(
            "model must be nilpotent: no generator order makes every "
            "differential depend on earlier generators only"
        )


# -- decompositions of the degree-1 part ----------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Chosen complement of the closed part of the degree-1 generator space."""

    complement: tuple[Vec, ...]

    def complement_names(self, alg: Algebra) -> tuple[str, ...] | None:
        """Generator names when every complement vector is a unit vector."""
        names = []
        for v in self.complement:
            items = [(j, c) for j, c in v.items() if c]
            if len(items) != 1 or items[0][1] != 1:
                return None
            names.append(alg.generators[items[0][0]].name)
        return tuple(names)


def default_decomposition(c: CDGA) -> Decomposition:
    """The unit-vector complement of the closed kernel, in declaration order."""
    span = Echelon()
    for vec in c.differential_matrix(1).kernel():
        span.add(vec)
    pivots = set(span.pivots)
    return Decomposition(
        tuple({j: Fraction(1)} for j in range(len(c.algebra.generators)) if j not in pivots)
    )


def decomposition_from_names(c: CDGA, names: Sequence[str]) -> Decomposition:
    """Complement picked as a set of generators; validated against the kernel."""
    dec = Decomposition(tuple({c.algebra.index_of(n): Fraction(1)} for n in names))
    validate_decomposition(c, dec)
    return dec


def validate_decomposition(c: CDGA, dec: Decomposition) -> None:
    """The complement meets the closed kernel in 0 and spans with it degree 1.

    Both are rank checks on the images under d_1, whose kernel is the
    closed part: the images are independent, and they span the image of d_1.
    """
    d_1 = c.differential_matrix(1)
    images = Echelon()
    for vec in dec.complement:
        if not images.add(d_1.apply(vec)):
            raise ValueError("invalid decomposition: vectors are dependent")
    if images.rank != d_1.rank():
        raise ValueError("invalid decomposition: parts do not span degree 1")


# -- rules ----------------------------------------------------------------


def full_formality(c: CDGA) -> str:
    """Formality of the whole model: exactly the vanishing differential."""
    _require_model(c)
    zero = all(v.is_zero() for v in c.differential().values())
    return OVERALL_FORMAL if zero else OVERALL_NOT_FORMAL


def obstruction_generation(c: CDGA, k: int) -> Evidence | None:
    """Failure of degree-1 generation below degree k+2, if any."""
    _require_model(c)
    if k < 0:
        raise ValueError("k must be nonnegative")
    r = from_cdga(c, k + 1)
    v = generated_in_degree_one_upto(r, k + 1)
    if v.generated:
        return None
    q = v.failure_degree
    return Evidence(
        "generation",
        q - 1,
        "not_formal",
        f"H^{q} is not generated by degree-one classes "
        f"(cokernel dimension {v.cokernel_dim})",
        {"failure_degree": q, "cokernel_dim": v.cokernel_dim},
    )


def obstruction_resonance(c: CDGA, s: int, *, seed: int = 0) -> Evidence | None:
    """A nontrivial resonance point in some degree <= s, if one is found.

    Degree 1 runs the exact decision; higher degrees only sample, so absence
    of evidence there proves nothing.
    """
    _require_model(c)
    if s < 1:
        return None
    r = from_cdga(c, max(2, min(s + 1, c.algebra.top_degree())))
    verdict = decide_r11_trivial(r, seed=seed)
    if verdict.kind == "witness":
        point = verdict.witness.point
        return Evidence(
            "resonance",
            1,
            "not_formal",
            "nonzero point of the degree-1 resonance variety",
            {"degree": 1, "point": [str(x) for x in point]},
        )
    if verdict.nontrivial_certified:
        return Evidence(
            "resonance",
            1,
            "not_formal",
            "degree-1 resonance variety is certified nontrivial over the "
            "algebraic closure",
            {"degree": 1},
        )
    for i in range(2, s + 1):
        if i + 1 > r.max_degree:
            break
        point = find_resonance_point(r, i, seed=seed)
        if point is not None:
            return Evidence(
                "resonance",
                i,
                "not_formal",
                f"nonzero point of the degree-{i} resonance variety",
                {"degree": i, "point": [str(x) for x in point]},
            )
    return None


def certify_prop_art(c: CDGA, k: int, dec: Decomposition | None = None) -> Evidence | None:
    """Sufficient certificate: the complement ideal meets cocycles in exacts.

    Checks, for every degree q <= k+1, that each cocycle inside the ideal I
    generated by the complement of the closed degree-1 part is a coboundary.
    I cap Z^q is the kernel of d_q on I and always holds I cap B^q, so it
    lies in B^q exactly when rank d_q(I) = rank(I + B^q) - rank B^q.
    Passing every degree up to j+1 certifies j-formality, so a first failure
    at q certifies q-2.  Returns the evidence for the largest certified
    j <= k, or None when degree 1 fails and j < 0.
    """
    _require_model(c)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if dec is None:
        dec = default_decomposition(c)
    validate_decomposition(c, dec)
    alg = c.algebra
    n = len(alg.generators)
    complement = [alg.from_coordinates(1, [v.get(j, 0) for j in range(n)]) for v in dec.complement]
    for q in range(1, min(k + 1, alg.top_degree()) + 1):
        d_q = c.differential_matrix(q)
        ideal_plus_image = Echelon()
        for col in c.differential_matrix(q - 1).cols:
            ideal_plus_image.add(col)
        image_rank = ideal_plus_image.rank
        d_ideal = Echelon()
        for nv in complement:
            for mono in alg.basis(q - 1):
                w = nv * alg.monomial(mono)
                if not w.is_zero():
                    row = dict_coords(alg, w, q)
                    ideal_plus_image.add(row)
                    d_ideal.add(d_q.apply(row))
        if d_ideal.rank != ideal_plus_image.rank - image_rank:
            k = q - 2
            break
    if k < 0:
        return None
    names = dec.complement_names(alg)
    detail = f"every cocycle in the ideal of the chosen complement is exact up to degree {k + 1}"
    data = {"complement": list(names) if names else "custom vectors"}
    return Evidence("prop-art-certificate", k, "formal", detail, data)


def is_twostep(c: CDGA) -> bool:
    """Whether the differential lands in the square of the closed part."""
    _require_model(c)
    alg = c.algebra
    n = len(alg.generators)
    kernel = c.differential_matrix(1).kernel()
    closed = [
        alg.from_coordinates(1, [v.get(j, Fraction(0)) for j in range(n)])
        for v in kernel
    ]
    wedge = Echelon()
    for a in range(len(closed)):
        for b in range(a + 1, len(closed)):
            w = closed[a] * closed[b]
            if not w.is_zero():
                wedge.add(dict_coords(alg, w, 2))
    return all(
        wedge.contains(dict_coords(alg, dv, 2))
        for dv in c.differential().values()
        if not dv.is_zero()
    )


@dataclass(frozen=True)
class TwoStepDecision:
    """Exact formality decision available for 2-step models."""

    k: int
    verdict: str
    generation: GenerationVerdict


def decide_twostep(c: CDGA, k: int) -> TwoStepDecision:
    """k-formality of a 2-step model, equivalent to degree-1 generation."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not is_twostep(c):
        raise NotTwoStep(
            "differential leaves the square of the closed degree-1 part"
        )
    r = from_cdga(c, k + 1)
    v = generated_in_degree_one_upto(r, k + 1)
    return TwoStepDecision(k, FORMAL if v.generated else NOT_FORMAL, v)


def infer_prop_k2(
    report: FormalityReport, ring: RingPresentation, k: int
) -> Evidence | None:
    """Upgrade a certified k-formal report to formal when H^(>=k+2) vanishes."""
    if not 0 <= k <= report.k_max:
        raise ValueError(f"degree {k} outside 0..{report.k_max}")
    if report.verdict(k) != FORMAL:
        return None
    top = ring.source.algebra.top_degree()
    if top is None:
        return None
    if top > ring.max_degree:
        raise CutoffError(
            f"need cohomology up to degree {top} but cutoff is {ring.max_degree}"
        )
    if any(ring.dim(q) != 0 for q in range(k + 2, top + 1)):
        return None
    if report.overall == OVERALL_NOT_FORMAL:
        raise RuntimeError("conflicting certificates for overall formality")
    ev = Evidence(
        "prop-k+2",
        report.k_max,
        "formal",
        f"certified {k}-formal with H^q = 0 for every q >= {k + 2}",
        {"k": k, "top_degree": top},
    )
    report.mark_formal_upto(ev)
    report.overall = OVERALL_FORMAL
    return ev


# -- chain maps -----------------------------------------------------------


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


# -- bigraded tower -------------------------------------------------------


@dataclass
class BigradedTower:
    """Degree-1 stages of the bigraded model of a ring with zero differential."""

    ring: RingPresentation
    cdga: CDGA
    stages: list[list[str]]
    stabilized: bool

    @property
    def stage_dims(self) -> list[int]:
        return [len(s) for s in self.stages]

    @property
    def total_dim(self) -> int:
        return sum(self.stage_dims)


def _unique_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name = name + "_"
    taken.add(name)
    return name


def bigraded_tower(r: RingPresentation, stage_cap: int = TOWER_CAP) -> BigradedTower:
    """Build degree-1 stages: closed classes first, then transgressed kernels.

    Stage 0 carries one closed generator per degree-1 class; stage i+1
    transgresses the kernel of the stage map on degree-2 cohomology.  The
    tower either stabilizes (empty kernel) or is truncated at the cap.

    The map sends stage-0 generator i to class i of H^1 and every later
    generator to 0, since the ring's differential is zero.  So a degree-2
    form sum c g_i g_j maps to the sum of c times the structure constants
    of classes i and j, over its terms with both generators in stage 0.
    """
    if r.max_degree < 2:
        raise CutoffError("bigraded tower needs a ring cutoff of at least 2")
    b1 = r.dim(1)
    names = [g.name for g in class_symbol_algebra(r).generators]
    taken = set(names)

    def image(v: Multivector) -> Vec:
        out: Vec = {}
        for (i, j), c in v.terms.items():
            if j < b1:
                for t, p in r.product_coords(1, i, 1, j).items():
                    out[t] = out.get(t, 0) + c * p
        return {t: x for t, x in sorted(out.items()) if x}

    cur = CDGA(Algebra([Generator(name, 1) for name in names]))
    stages = [names]
    stabilized = False
    for wave in range(1, stage_cap + 1):
        coh2 = cur.cohomology(2)
        cols = [image(rep) for rep in coh2.representatives]
        kern = SparseMatrix(r.dim(2), coh2.dim, cols).kernel()
        if not kern:
            stabilized = True
            break
        additions = []
        for idx, vec in enumerate(kern):
            trans = coh2.class_of([vec.get(t, Fraction(0)) for t in range(coh2.dim)])
            if image(trans):
                raise RuntimeError("kernel transgression image is not zero in the ring")
            name = _unique_name(f"w{wave}_{idx}", taken)
            additions.append((Generator(name, 1), trans))
        cur = hirsch_extend(cur, additions)
        stages.append([g.name for g, _ in additions])
    return BigradedTower(r, cur, stages, stabilized)


# -- the chain-map solver -------------------------------------------------
#
# Polynomials in the solver unknowns are elements of one sympy PolyRing over
# QQ (grevlex), built per call once the unknowns are counted.


def _fraction(c) -> Fraction:
    """A coefficient of a polynomial (an element of sympy's QQ) as a Fraction."""
    return Fraction(c.numerator, c.denominator)


def _ground(R, c):
    """A rational as a coefficient of ``R``.

    Built from numerator and denominator: sympy converts a Fraction through
    ``sympify``, which costs more than the arithmetic it feeds.
    """
    return R.domain(c.numerator, c.denominator)


def _evaluate(p, values: Sequence[Fraction]) -> Fraction:
    """Value of a polynomial at a rational point.

    Summed term by term: ``p(*values)`` builds a new ring for every unknown
    it drops, so its cost grows with the number of unknowns.
    """
    total = Fraction(0)
    for mono, c in p.terms():
        term = _fraction(c)
        for v, e in zip(values, mono):
            if e:
                term *= v**e
        total += term
    return total


@dataclass(frozen=True)
class MapTemplate:
    """Affine family of candidate images: a base plus unknown directions."""

    base: object
    freedom: tuple = ()


@dataclass
class MapSolveResult:
    """Outcome of the symbolic search for a constrained chain map."""

    status: str  # "solution" | "unsatisfiable" | "unknown"
    assignment: dict[str, Multivector] | None
    certificate: str | None
    unknowns: int
    equations: int
    detail: str = ""


def _split_by_span(
    span: Echelon, mat: SparseMatrix, keys: Sequence, pel: dict, R
) -> tuple[dict, dict]:
    """Split a poly-vector over ``keys`` along the columns of ``mat``.

    ``span`` is the echelon of those columns.  Returns the coefficients over
    the columns, zero at each column dependent on earlier ones, and the
    residual modulo their span, both with entries in the polynomial ring
    ``R``.  Both are linear, so each monomial in the unknowns is split on
    its own: its residual is taken off first, and one solve lifts the rest
    of every monomial at once.
    """
    index = {k: i for i, k in enumerate(keys)}
    by_mono: dict[tuple, Vec] = {}
    for key, p in pel.items():
        for mono, c in p.terms():
            by_mono.setdefault(mono, {})[index[key]] = _fraction(c)
    residual: dict = {}
    for mono, vec in by_mono.items():
        for j, c in span.reduce(vec).items():
            residual.setdefault(keys[j], {})[mono] = _ground(R, c)
            vec[j] = vec.get(j, 0) - c
    coeffs: dict[int, dict] = {}
    for mono, x in zip(by_mono, mat.solve(list(by_mono.values()))):
        for k, c in x.items():
            coeffs.setdefault(k, {})[mono] = _ground(R, c)
    return (
        {k: R(terms) for k, terms in coeffs.items()},
        {key: R(terms) for key, terms in residual.items()},
    )


def _sparse_det(entries: list[list], R):
    """Determinant of a matrix over ``R`` by sparse Laplace expansion."""
    n = len(entries)

    def rec(row: int, used: int):
        if row == n:
            return R.one
        out = R.zero
        sign = 1
        for col in range(n):
            bit = 1 << col
            if used & bit:
                continue
            entry = entries[row][col]
            if entry:
                sub = rec(row + 1, used | bit)
                if sub:
                    out += sign * (entry * sub)
            sign = -sign
        return out

    return rec(0, 0)


def _nonvanishing_point(product, nfree: int) -> list[Fraction]:
    """A rational point where a nonzero polynomial does not vanish.

    The polynomial involves only the first ``nfree`` unknowns.  Each of
    them in turn takes the first of 0, 1, ..., deg that keeps it nonzero.
    One always does: over the field of the other unknowns, it is a nonzero
    polynomial of degree deg in this one, so it has at most deg roots.
    """
    point: list[Fraction] = []
    for var in range(nfree):
        for v in range(product.degree(var) + 1):
            cand = product.subs(var, v)
            if cand:
                break
        point.append(Fraction(v))
        product = cand
    return point


def _h1_class_matrix_polys(
    h1_kernel: Sequence[Vec], images_pel: Sequence[dict], target: CDGA, n_src: int, R
) -> list[list]:
    """Symbolic matrix of the induced map on degree-1 cohomology.

    B^1 = 0, so the representatives are the reduced echelon basis of Z^1:
    only rep_i is nonzero at its pivot p_i, and class i of an image is its
    entry at p_i over rep_i[p_i], read on the polynomials directly.
    """
    reps = target.cohomology(1).representatives
    pivots = [min(rep.terms) for rep in reps]
    scales = [_ground(R, 1 / rep.terms[p]) for rep, p in zip(reps, pivots)]
    entries = []
    for vec in h1_kernel:
        ambient: dict = {}
        for i in range(n_src):
            c = vec.get(i)
            if not c:
                continue
            for key, p in images_pel[i].items():
                ambient[key] = ambient.get(key, R.zero) + p.mul_ground(_ground(R, c))
        entries.append([ambient.get(p, R.zero).mul_ground(f) for p, f in zip(pivots, scales)])
    return entries


def dga_map_solve(
    source: CDGA,
    target: CDGA,
    constraints: Mapping[str, object] | None = None,
    *,
    nonzero: Sequence[tuple[str, str]] = (),
    require_h1_iso: bool = False,
) -> MapSolveResult:
    """Search for a chain map respecting constraints, exactly.

    Fixed images and affine templates pin some generators; the rest receive
    a particular lift of their transgression image plus free closed
    directions.  Compatibility with both differentials becomes a polynomial
    system in the unknown coefficients: linear systems are eliminated
    exactly, and non-vanishing side conditions (specific coefficients, or
    invertibility on degree one) are settled symbolically on the solution
    family.  Non-linear systems go through a Groebner basis when the
    unknown count stays within ``ELIMINATION_BOUND``.
    """
    if not isinstance(target, CDGA):
        raise TypeError(f"unsupported chain-map target {type(target).__name__}")
    from sympy import Symbol
    from sympy.polys.domains import QQ
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import ring

    if any(g.degree != 1 for g in source.algebra.generators):
        raise ValueError("source must be generated in degree 1")
    order = _nilpotent_order(source)
    if order is None:
        raise ValueError("source differential admits no nilpotent order")
    alg = target.algebra
    constraints = dict(constraints or {})
    for name in constraints:
        source.algebra.index_of(name)

    def as_element(value):
        if isinstance(value, str):
            value = alg.parse(value)
        # degree raises on mixed degrees and is None for zero
        if value.degree not in (None, 1):
            raise ValueError(
                f"image {value} of a degree-one generator has degree {value.degree}"
            )
        return value

    # the polynomial vectors below are keyed by the target's monomials
    basis1, keys2 = alg.basis(1), alg.basis(2)
    # the columns of d_1 span the exact degree-2 part
    d1 = target.differential_matrix(1)
    exact_span = Echelon()
    for col in d1.cols:
        exact_span.add(col)
    closed = [{basis1[j]: c for j, c in sorted(vec.items()) if c} for vec in d1.kernel()]
    n_src = len(source.algebra.generators)

    # one unknown per template direction, and per closed direction of a free generator
    labels: list[str] = []
    for i in order:
        name = source.algebra.generators[i].name
        if name not in constraints:
            labels += [f"{name}<{t}>" for t in range(len(closed))]
        elif isinstance(constraints[name], MapTemplate):
            labels += [f"{name}[{t}]" for t in range(len(constraints[name].freedom))]
    R, *gens = ring([Symbol(label) for label in labels], QQ, grevlex)
    nparams = len(gens)
    unknowns = iter(gens)

    images_pel: list[dict | None] = [None] * n_src
    equations: list[tuple[object, str]] = []

    def add_into(pel: dict, key, p, c) -> None:
        """pel[key] += c * p for a rational c."""
        pel[key] = pel.get(key, R.zero) + p.mul_ground(_ground(R, c))

    def nonzero_part(pel: dict) -> dict:
        return {k: p for k, p in pel.items() if p}

    def pel_mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for ka, pa in a.items():
            for kb, pb in b.items():
                prod = alg.monomial_product(ka, kb)
                if prod is not None:
                    add_into(out, prod[1], pa * pb, prod[0])
        return nonzero_part(out)

    def pel_apply(v: Multivector) -> dict:
        out: dict = {}
        for mono, c in sorted(v.terms.items()):
            cur = {(): R.one}
            for i in mono:
                cur = pel_mul(cur, images_pel[i])
            for key, p in cur.items():
                add_into(out, key, p, c)
        return nonzero_part(out)

    def pel_d(pel: dict) -> dict:
        out: dict = {}
        for key, p in pel.items():
            for key2, c in target._d_monomial(key).terms.items():
                add_into(out, key2, p, c)
        return nonzero_part(out)

    def const_pel(elem: Multivector) -> dict:
        img: dict = {}
        for key, c in elem.terms.items():
            add_into(img, key, R.one, c)
        return img

    def add_directions(img: dict, directions: Iterable[dict]) -> None:
        for terms in directions:
            x = next(unknowns)
            for key, c in terms.items():
                add_into(img, key, x, c)

    for i in order:
        gen = source.algebra.generators[i]
        dv = source.d_generator(gen.name)
        rhs = pel_apply(dv)
        if gen.name in constraints:
            spec = constraints[gen.name]
            if isinstance(spec, MapTemplate):
                img = const_pel(as_element(spec.base))
                add_directions(img, [as_element(e).terms for e in spec.freedom])
            else:
                img = const_pel(as_element(spec))
            img = nonzero_part(img)
            lhs = pel_d(img)
            for key in sorted(set(lhs) | set(rhs)):
                poly = lhs.get(key, R.zero) - rhs.get(key, R.zero)
                if poly:
                    note = (
                        f"chain condition at {gen.name!r}, "
                        f"coordinate {alg.monomial(key)}"
                    )
                    equations.append((poly, note))
        else:
            lift, residual = _split_by_span(exact_span, d1, keys2, rhs, R)
            for key in sorted(residual):
                note = (
                    f"exactness obstruction at {gen.name!r}, "
                    f"coordinate {alg.monomial(key)}"
                )
                equations.append((residual[key], note))
            img = {}
            for col, poly in sorted(lift.items()):
                add_into(img, basis1[col], poly, 1)
            add_directions(img, closed)
            img = nonzero_part(img)
        images_pel[i] = img

    # side conditions: explicit non-vanishing coefficients, optional iso
    conditions: list[tuple[object, str]] = []
    for gen_name, target_name in nonzero:
        i = source.algebra.index_of(gen_name)
        conditions.append(
            (
                images_pel[i].get((alg.index_of(target_name),), R.zero),
                f"coefficient of {target_name} in the image of {gen_name!r}",
            )
        )
    h1_matrix: list[list] = []
    if require_h1_iso:
        h1_kernel = source.differential_matrix(1).kernel()
        n1 = len(h1_kernel)
        h1 = target.cohomology(1).dim
        if n1 != h1:
            return MapSolveResult(
                "unsatisfiable",
                None,
                f"closed degree-one dimensions differ: source {n1}, "
                f"target {h1}",
                nparams,
                len(equations),
            )
        h1_matrix = _h1_class_matrix_polys(h1_kernel, images_pel, target, n_src, R)
        if n1 <= 7:
            conditions.append(
                (
                    _sparse_det(h1_matrix, R),
                    "determinant of the induced degree-one cohomology map",
                )
            )
        # beyond that size invertibility is only checked on the found map

    linear = all(p.is_linear for p, _ in equations) and all(
        p.is_linear for img in images_pel for p in img.values()
    )

    if linear:
        # unknown i is column i and the constant term is column nparams; a
        # pivot there is a row 0 = c, first reached by an inconsistent equation
        system = Echelon()
        for poly, note in equations:
            system.add(
                {
                    mono.index(1) if any(mono) else nparams: _fraction(c)
                    for mono, c in poly.terms()
                }
            )
            if system.pivots and system.pivots[-1] == nparams:
                return MapSolveResult(
                    "unsatisfiable",
                    None,
                    f"inconsistent equation: {note}",
                    nparams,
                    len(equations),
                )
        # consistent, so the constant column is free: its null vector scaled
        # to 1 there is the solution with every free unknown zero, and each
        # free unknown's null vector scaled to 1 at it is a direction
        *null, particular = [
            [Fraction(k.get(i, 0), k[f]) for i in range(nparams)]
            for f, k in system.null_vectors(range(nparams + 1))
        ]
        point = [Fraction(0)] * len(null)
        if conditions:
            # the solution family, with the null-space parameters as the first unknowns
            subs = [R(_ground(R, v)) for v in particular]
            for t, vec in enumerate(null):
                for i in range(nparams):
                    if vec[i]:
                        subs[i] += gens[t].mul_ground(_ground(R, vec[i]))
            family = list(zip(gens, subs))
            product = R.one
            for poly, _ in conditions:
                product *= poly.compose(family)
            if not product:
                notes = "; ".join(note for _, note in conditions)
                return MapSolveResult(
                    "unsatisfiable",
                    None,
                    "every solution of the linear system violates a "
                    f"non-vanishing condition ({notes})",
                    nparams,
                    len(equations),
                )
            point = _nonvanishing_point(product, len(null))
        values = list(particular)
        for t, vec in enumerate(null):
            for i in range(nparams):
                values[i] += point[t] * vec[i]
    else:
        if nparams > ELIMINATION_BOUND:
            residual = "; ".join(f"{p} = 0" for p, _ in equations[:6])
            raise EliminationBoundError(nparams, ELIMINATION_BOUND, residual)
        values = _nonlinear_solve(equations, conditions, R)
        if values == "unsat":
            return MapSolveResult(
                "unsatisfiable",
                None,
                "the polynomial system has no solution over any field "
                "extension compatible with the side conditions",
                nparams,
                len(equations),
            )
        if values is None:
            return MapSolveResult(
                "unknown",
                None,
                None,
                nparams,
                len(equations),
                "no rational solution found within the search bounds",
            )

    assignment: dict[str, Multivector] = {}
    images_exact: list[Multivector] = [None] * n_src
    for i in range(n_src):
        terms = {key: _evaluate(p, values) for key, p in images_pel[i].items()}
        elem = Multivector(alg, terms)
        images_exact[i] = elem
        assignment[source.algebra.generators[i].name] = elem
    for i in range(n_src):
        gen = source.algebra.generators[i]
        lhs = target.d(images_exact[i])
        rhs = apply_chain_map(images_exact, source.d_generator(gen.name), target)
        if not (lhs - rhs).is_zero():
            raise RuntimeError(f"chain-map verification failed at {gen.name!r}")
    for poly, note in conditions:
        if _evaluate(poly, values) == 0:
            return MapSolveResult(
                "unknown",
                None,
                None,
                nparams,
                len(equations),
                f"found solution violates: {note}",
            )
    if len(h1_matrix) > 7:
        span = Echelon()
        for row in h1_matrix:
            span.add({j: v for j, p in enumerate(row) if (v := _evaluate(p, values))})
        if span.rank < len(h1_matrix):
            return MapSolveResult(
                "unknown",
                None,
                None,
                nparams,
                len(equations),
                "found chain map is not invertible on degree-one cohomology",
            )
    return MapSolveResult(
        "solution", assignment, None, nparams, len(equations)
    )


def _nonlinear_solve(equations, conditions, R):
    """Groebner-based decision with a bounded rational point search."""
    from sympy import Integer, Symbol, solve, symbols
    from sympy.polys.groebnertools import groebner

    polys = [p for p, _ in equations]
    conds = [p for p, _ in conditions]
    if not all(conds):
        return "unsat"
    system, S = polys, R
    if conds:
        # Rabinowitsch: t * prod(conds) = 1 is solvable only where no condition vanishes
        S = R.clone(symbols=R.symbols + (Symbol("t_rab"),))
        prod = S.one
        for p in conds:
            prod *= p.set_ring(S)
        system = [p.set_ring(S) for p in polys] + [S.gens[-1] * prod - 1]
    if system and groebner(system, S) == [S.one]:
        return "unsat"

    def satisfies(vals: list[Fraction]) -> bool:
        return all(_evaluate(p, vals) == 0 for p in polys) and all(
            _evaluate(p, vals) != 0 for p in conds
        )

    nparams = R.ngens
    # bounded deterministic search for a rational witness
    if nparams <= 6:
        for cand in itertools.product(range(-2, 3), repeat=nparams):
            vals = [Fraction(v) for v in cand]
            if satisfies(vals):
                return vals
    # solve sorts its solutions by symbol name: on the labels it could return
    # another one first, so it runs on q0, q1, ... in ring order
    syms = symbols(f"q0:{nparams}")
    try:
        sols = solve([p.as_expr(*syms) for p in polys], list(syms), dict=True)
    except NotImplementedError:
        sols = []
    for sol in sols:
        vals = [sol.get(s, Integer(0)) for s in syms]
        if not all(v.is_Rational for v in vals):
            continue
        vals = [Fraction(int(v.p), int(v.q)) for v in vals]
        if satisfies(vals):
            return vals
    return None


# -- the aggregate report -------------------------------------------------


def formality_report(
    c: CDGA,
    k_max: int,
    *,
    seed: int = 0,
    decomposition: Decomposition | None = None,
) -> FormalityReport:
    """Run all applicable rules and merge their evidence monotonically.

    A vanishing differential settles everything at once.  Two-step models
    get the exact generation decision.  Everything else collects sufficient
    certificates, generation and resonance obstructions, the vanishing-top
    upgrade, and, for degree one, a verdict from the normalized chain-map
    search out of the degree-1 tower of the cohomology.
    """
    _require_model(c)
    report = FormalityReport(k_max)

    if full_formality(c) == OVERALL_FORMAL:
        report.overall = OVERALL_FORMAL
        report.mark_formal_upto(
            Evidence(
                "rationally-abelian",
                k_max,
                "formal",
                "the differential vanishes, so the model is its own cohomology",
            )
        )
        return report
    report.overall = OVERALL_NOT_FORMAL
    report.add_info(
        Evidence(
            "rationally-abelian",
            k_max,
            "info",
            "nonzero differential: not formal as a whole, partial degrees "
            "decided separately",
        )
    )

    try:
        v = decide_twostep(c, k_max).generation
    except NotTwoStep:
        pass
    else:
        if v.generated:
            report.mark_formal_upto(
                Evidence(
                    "two-step-decision",
                    k_max,
                    "formal",
                    f"2-step model with H^q generated in degree one for "
                    f"q <= {k_max + 1}",
                )
            )
        else:
            q = v.failure_degree
            if q - 2 >= 0:
                report.mark_formal_upto(
                    Evidence(
                        "two-step-decision",
                        q - 2,
                        "formal",
                        f"2-step model generated in degree one up to H^{q - 1}",
                    )
                )
            report.mark_not_formal_from(
                Evidence(
                    "two-step-decision",
                    q - 1,
                    "not_formal",
                    f"2-step model with H^{q} not generated in degree one "
                    f"(cokernel dimension {v.cokernel_dim})",
                    {"failure_degree": q, "cokernel_dim": v.cokernel_dim},
                )
            )
        return report

    ev = obstruction_generation(c, k_max)
    if ev is not None:
        report.mark_not_formal_from(ev)
    ev = obstruction_resonance(c, k_max, seed=seed)
    if ev is not None and report.verdict(ev.k) != NOT_FORMAL:
        report.mark_not_formal_from(ev)
    elif ev is not None:
        report.add_info(ev)

    # the largest k not ruled out; the certificate falls back to the largest it can certify
    k = k_max if report.least_not_formal is None else report.least_not_formal - 1
    if k >= 0:
        ev = certify_prop_art(c, k, decomposition)
        if ev is not None:
            report.mark_formal_upto(ev)

    if report.verdict(min(1, k_max)) == INCONCLUSIVE and k_max >= 1:
        try:
            tower = bigraded_tower(from_cdga(c, 2), stage_cap=TOWER_CAP)
            coh1 = c.cohomology(1)
            constraints = {
                name: coh1.representatives[j]
                for j, name in enumerate(tower.stages[0])
            }
            res = dga_map_solve(tower.cdga, c, constraints, require_h1_iso=True)
            if res.status == "unsatisfiable":
                report.mark_not_formal_from(
                    Evidence(
                        "morphism-solver",
                        1,
                        "not_formal",
                        "no normalized chain map from the degree-1 tower of "
                        f"the cohomology exists: {res.certificate}",
                        {"unknowns": res.unknowns, "equations": res.equations},
                    )
                )
            elif res.status == "solution" and tower.stabilized:
                report.mark_formal_upto(
                    Evidence(
                        "morphism-solver",
                        1,
                        "formal",
                        "normalized isomorphism onto the degree-1 tower of "
                        "the cohomology found",
                        {"unknowns": res.unknowns},
                    )
                )
            else:
                detail = f"chain-map search inconclusive: {res.detail or res.status}"
                if not tower.stabilized:
                    report.bound_exceeded = True
                    detail += (
                        f"; the degree-1 tower was truncated at stage cap {TOWER_CAP}"
                    )
                report.add_info(Evidence("morphism-solver", 1, "info", detail))
        except EliminationBoundError as exc:
            report.bound_exceeded = True
            report.add_info(
                Evidence(
                    "morphism-solver",
                    1,
                    "info",
                    f"search skipped: {exc}",
                )
            )

    best = report.best_formal
    if best is not None and report.overall != OVERALL_FORMAL:
        top = c.algebra.top_degree()
        # Generators have degree 1 and each d(g_j) uses earlier ones only, so
        # d(vol/g_i) would need g_i*g_j in d(g_j): d_(top-1) = 0 and
        # H^top = Q.  The rule reads H^q = 0 for k+2 <= q <= top, so it can
        # act (here: raise on the conflict) only when that range is empty.
        if best + 2 > top:
            infer_prop_k2(report, from_cdga(c, max(top, 1)), best)
    return report
