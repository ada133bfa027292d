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
import weakref
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .cdga import CDGA, apply_chain_map, coordinate_model, dict_coords, hirsch_extend
from .gca import AlgebraError, Generator, Monomial, Multivector
from .linalg import Echelon, Poly, SparseMatrix, Vec, groebner_leads, poly_value
from .resonance import decide_r11_trivial, find_resonance_point
from .ring import characteristic_subspace, from_cdga, generated_in_degree_one_upto

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


class EliminationBoundError(RuntimeError):
    """The symbolic solver refused a system with too many unknowns."""

    def __init__(self, unknowns: int):
        super().__init__(
            f"elimination over {unknowns} unknowns exceeds the bound {ELIMINATION_BOUND}"
        )
        self.unknowns = unknowns


# -- report ---------------------------------------------------------------


class Evidence(
    NamedTuple(
        "Evidence",
        [("rule", str), ("k", int), ("kind", str), ("detail", str), ("data", "dict | None")],
    )
):
    """One applied rule with the degree it speaks to and its payload.

    ``kind`` is "formal", "not_formal" or "info"; ``data`` defaults to None.
    """

    __slots__ = ()

    def __new__(cls, rule: str, k: int, kind: str, detail: str, data: dict | None = None):
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}")
        if kind not in ("formal", "not_formal", "info"):
            raise ValueError(f"unknown evidence kind {kind!r}")
        return super().__new__(cls, rule, k, kind, detail, data)


class FormalityReport:
    """Per-degree trichotomy verdicts, read off the evidence and merged without conflict.

    Formal evidence at k makes every degree up to k formal, and not-formal
    evidence every degree from k on not formal, each k clamped to
    0..k_max; info evidence decides nothing.  So the verdicts are a function
    of the evidence, kept as the two numbers they are read from:
    ``best_formal``, the largest formal degree, and ``least_not_formal``,
    the least not-formal one, each None while no evidence gives it.
    """

    def __init__(self, k_max: int):
        if k_max < 0:
            raise ValueError("k_max must be nonnegative")
        self.k_max = k_max
        self.evidence: list[Evidence] = []
        self.best_formal: int | None = None
        self.least_not_formal: int | None = None
        self.overall = INCONCLUSIVE
        # set when a search bound or the tower's stage cap cut a rule short
        self.bound_exceeded = False

    def verdict(self, k: int) -> str:
        if not 0 <= k <= self.k_max:
            raise ValueError(f"degree {k} outside 0..{self.k_max}")
        if self.best_formal is not None and k <= self.best_formal:
            return FORMAL
        if self.least_not_formal is not None and k >= self.least_not_formal:
            return NOT_FORMAL
        return INCONCLUSIVE

    def verdicts(self) -> list[str]:
        return [self.verdict(k) for k in range(self.k_max + 1)]

    def add(self, ev: Evidence) -> None:
        """Record ``ev`` and the degrees it decides; raise on a conflict, recording nothing."""
        best, least = self.best_formal, self.least_not_formal
        if ev.kind == "formal" and (k := min(ev.k, self.k_max)) >= 0:
            if least is not None and least <= k:
                raise RuntimeError(
                    f"conflicting certificates: degree {least} is already not formal"
                )
            self.best_formal = k if best is None else max(best, k)
        elif ev.kind == "not_formal" and (k := max(ev.k, 0)) <= self.k_max:
            if best is not None and best >= k:
                raise RuntimeError(
                    f"conflicting certificates: degree {k} is already formal"
                )
            self.least_not_formal = k if least is None else min(least, k)
        self.evidence.append(ev)


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


# accepted models and validated complements, so each is checked once; a CDGA never changes
_ACCEPTED: weakref.WeakSet[CDGA] = weakref.WeakSet()
_VALID: weakref.WeakKeyDictionary[CDGA, set[tuple[str, ...]]] = weakref.WeakKeyDictionary()


def _require_model(c: CDGA) -> None:
    """Reject inputs outside the engine's scope with a clear message."""
    if c in _ACCEPTED:
        return
    if any(g.degree != 1 for g in c.algebra.generators):
        raise ValueError("model must be generated in degree 1")
    if not c.is_minimal:
        raise ValueError("model must be minimal (decomposable differential)")
    if _nilpotent_order(c) is None:
        raise ValueError(
            "model must be nilpotent: no generator order makes every "
            "differential depend on earlier generators only"
        )
    _ACCEPTED.add(c)


# -- decompositions of the degree-1 part ----------------------------------
#
# A complement of the closed degree-1 part is a tuple of generator names.


def default_decomposition(c: CDGA) -> tuple[str, ...]:
    """The generators that are not the least index of an H^1 representative,
    the pivots of the `coordinate_model`.

    Valid by construction: the representatives, a basis of Z^1, have
    increasing least-index pivots, each zero at the others', so a nonzero z
    in Z^1 has a pivot as least index: Z^1 cap span N = 0, |N| = n - dim Z^1.
    """
    pivots = coordinate_model(c)[0]
    gens = c.algebra.generators
    return tuple(g.name for j, g in enumerate(gens) if j not in pivots)


def decomposition_from_names(c: CDGA, names: Sequence[str]) -> tuple[str, ...]:
    """Complement picked as a set of generators; validated against the kernel
    of a model the report accepts, checked first (``ValueError`` otherwise)."""
    _require_model(c)
    return validate_decomposition(c, names)


def validate_decomposition(c: CDGA, names: Sequence[str]) -> tuple[str, ...]:
    """The complement meets the closed kernel in 0 and spans with it degree 1.

    d_1 has the closed part as kernel, so both are rank checks on its columns
    at the complement's generators, whose names must exist (else
    ``AlgebraError``): they are independent and span B^2 = d_1(A^1).
    Returns the names as a tuple.
    """
    dec = tuple(names)
    cols = c.differential_matrix(1).cols
    images = Echelon(cols[c.algebra.index_of(name)] for name in dec)
    if images.rank < len(dec):
        raise ValueError("invalid decomposition: vectors are dependent")
    if images.rank != c.coboundaries(2).rank:
        raise ValueError("invalid decomposition: parts do not span degree 1")
    _VALID.setdefault(c, set()).add(dec)
    return dec


# -- rules ----------------------------------------------------------------


def full_formality(c: CDGA) -> str:
    """Formality of the whole model: exactly the vanishing differential."""
    _require_model(c)
    return OVERALL_NOT_FORMAL if c.differential() else OVERALL_FORMAL


def obstruction_generation(c: CDGA, k: int) -> Evidence | None:
    """Failure of degree-1 generation below degree k+2, if any."""
    _require_model(c)
    if k < 0:
        raise ValueError("k must be nonnegative")
    v = generated_in_degree_one_upto(c, k + 1)
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

    Degree 1 runs the exact decision, on cochains unless it re-checks a
    witness; higher degrees only sample, so absence of evidence there proves
    nothing.  Only sampling builds a ring, with H^q for q <= s+1.
    """
    _require_model(c)
    if s < 1:
        return None
    verdict = decide_r11_trivial(c, seed=seed)
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
    if (cutoff := min(s + 1, c.algebra.top_degree())) > 2:
        r = from_cdga(c, cutoff)
        for i in range(2, cutoff):
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


def certify_prop_art(c: CDGA, k: int, dec: Sequence[str] | None = None) -> Evidence:
    """Sufficient certificate: the complement ideal meets cocycles in exacts.

    Checks, for every degree q <= k+1, that each cocycle in the ideal I of
    the complement N of the closed degree-1 part, a tuple of generator names
    (``default_decomposition`` when None), is a coboundary.  Degree 1
    is Z^1 cap span N = 0: by construction for the default N, else checked
    by `validate_decomposition` unless N passed it before for this model.
    Above it, A^q = wedge^q Z^1 + I^q with wedge^q Z^1 in Z^q, so H^q maps
    onto A^q / (I^q + B^q) with kernel the classes of Z^q cap I^q: degree q
    passes exactly when b_q = dim A^q - rank(I^q + B^q), b_q read from two
    ranks by ``c.betti``.  I^q is spanned by
    the monomials of basis(q) that hold a complement generator, so that is
    |R| - rank of B^q cut to the other monomials R.  Passing every degree up
    to j+1 certifies j-formality, so a first failure at q certifies q-2 >= 0.
    Returns the evidence for the largest certified j <= k.

    For the default N, the ranks are read in the `coordinate_model`, whose
    d' the climb has ranked: phi fixes N, so it keeps the ideal I and maps
    A^q / I^q onto itself, and B'^q = phi(B^q) has the same cut rank and
    Betti numbers.  There R^q spans P_q, and the climb ranks B'^q cut to
    I^q.  So where H^q is generated, degree q passes exactly when
    rank pi_I(B'^q) + rank pi_R(B'^q) = rank B'^q.
    """
    _require_model(c)
    if k < 0:
        raise ValueError("k must be nonnegative")
    model = c
    if dec is None:
        dec = default_decomposition(c)
        model = coordinate_model(c)[1]
    elif (dec := tuple(dec)) not in _VALID.get(c, ()):
        validate_decomposition(c, dec)
    alg = c.algebra
    complement = {alg.index_of(name) for name in dec}
    for q in range(2, min(k + 1, alg.top_degree()) + 1):
        rest = {j for j, mono in enumerate(alg.basis(q)) if complement.isdisjoint(mono)}
        if len(rest) - model.differential_matrix(q - 1).cut_rank(rest) != model.betti(q):
            k = q - 2
            break
    detail = f"every cocycle in the ideal of the chosen complement is exact up to degree {k + 1}"
    data = {"complement": list(dec)}
    return Evidence("prop-art-certificate", k, "formal", detail, data)


def is_twostep(c: CDGA) -> bool:
    """Whether each column of d_1 lies in P_2, the square of the closed part:
    in the `coordinate_model`, whether each term of d' is a product of pivots."""
    _require_model(c)
    pivots, model = coordinate_model(c)
    return all(pivots.issuperset(m) for v in model._d_gen.values() for m in v.terms)


def infer_prop_k2(report: FormalityReport, c: CDGA, k: int) -> Evidence | None:
    """Upgrade a certified k-formal report to formal when H^(>=k+2) vanishes,
    each Betti number read from two ranks by ``c.betti``."""
    if not 0 <= k <= report.k_max:
        raise ValueError(f"degree {k} outside 0..{report.k_max}")
    if report.verdict(k) != FORMAL:
        return None
    top = c.algebra.top_degree()
    if top is None:
        return None
    if any(c.betti(q) != 0 for q in range(k + 2, top + 1)):
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
    report.add(ev)
    report.overall = OVERALL_FORMAL
    return ev


# -- bigraded tower -------------------------------------------------------


class BigradedTower(NamedTuple):
    """Degree-1 stages of the bigraded model of a ring with zero differential."""

    cdga: CDGA
    stages: list[list[str]]
    stabilized: bool

    @property
    def stage_dims(self) -> list[int]:
        return [len(s) for s in self.stages]


def _unique_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name = name + "_"
    taken.add(name)
    return name


def bigraded_tower(c: CDGA, stage_cap: int = TOWER_CAP) -> BigradedTower:
    """Build degree-1 stages of H*(c): closed classes first, then transgressed kernels.

    Stage 0 carries one closed generator per degree-1 class; stage i+1
    transgresses the kernel of the stage map on degree-2 cohomology.  The
    tower either stabilizes (empty kernel) or is truncated at the cap.

    The map sends stage-0 generator i to class i of H^1 and every later
    generator to 0, since the ring's differential is zero.  So a degree-2
    form sum a g_i g_j maps to sum a z_i z_j, read in ``c.wedge_table``, over
    its terms in stage 0.  There every form is a class, so stage 1 is the
    characteristic subspace basis, and wave 1 reads no H^2 of the tower.
    """
    sub = characteristic_subspace(c)
    names = [g.name for g in sub.algebra.generators]
    b1, table, taken = len(names), c.wedge_table, set(names)

    def image(v: Multivector) -> Vec:
        out: Vec = {}
        for (i, j), a in v.terms.items():
            if j < b1:
                for t, p in table[(i, j)].items():
                    out[t] = out.get(t, 0) + a * p
        return {t: x for t, x in sorted(out.items()) if x}

    cur, kern = CDGA(sub.algebra), sub.basis
    stages, stabilized = [names], False
    for wave in range(1, stage_cap + 1):
        if wave > 1:
            coh2 = cur.cohomology(2)
            cols = [image(rep) for rep in coh2.representatives]
            kern = [
                coh2.class_of([vec.get(t, 0) for t in range(coh2.dim)])
                for vec in SparseMatrix(c.algebra.dim(2), coh2.dim, cols).kernel()
            ]
        if not kern:
            stabilized = True
            break
        additions = []
        for idx, trans in enumerate(kern):
            if image(trans):
                raise RuntimeError("kernel transgression image is not zero in the ring")
            name = _unique_name(f"w{wave}_{idx}", taken)
            additions.append((Generator(name, 1), trans))
        cur = hirsch_extend(cur, additions)
        stages.append([g.name for g, _ in additions])
    return BigradedTower(cur, stages, stabilized)


# -- the chain-map solver -------------------------------------------------
#
# Constraints are fixed images.  Every other generator gets a lift of its
# transgression image plus free closed directions, whose coefficients are
# the unknowns.  An image maps each monomial in the unknowns, a sorted tuple
# of their indices with ``()`` the constant, to a ``Multivector`` of the
# target, so products and d are the target's own.  `_transpose` reads each
# target monomial's ``linalg.Poly`` off an image, for the equations and the
# final assignment.  A linear system is eliminated by an ``Echelon``.  A
# non-linear one is refuted by ``linalg.groebner_leads``, the one sympy call,
# or solved by a bounded grid of small integer points, or left unknown.

Image = dict[tuple[int, ...], Multivector]


class MapSolveResult(NamedTuple):
    """Outcome of the symbolic search for a constrained chain map."""

    status: str  # "solution" | "unsatisfiable" | "unknown"
    assignment: dict[str, Multivector] | None
    certificate: str | None
    unknowns: int
    equations: int
    detail: str = ""


def _gather(terms: Iterable[tuple[tuple[int, ...], Multivector]]) -> Image:
    """The image summing the terms of each monomial in the unknowns."""
    out: Image = {}
    for mono, v in terms:
        out[mono] = out[mono] + v if mono in out else v
    return out


def _transpose(img: Image) -> dict[Monomial, Poly]:
    """Each target monomial of an image -> its coefficient, a Poly in the unknowns."""
    out: dict[Monomial, Poly] = {}
    for mono, v in img.items():
        for key, c in v.terms.items():
            out.setdefault(key, {})[mono] = c
    return out


def _split_by_span(target: CDGA, img: Image) -> tuple[Image, Image]:
    """Split a degree-2 image along B^2 = d(A^1) of ``target``.

    Returns a degree-1 lift, zero at each generator whose d depends on the
    d of earlier ones, and the residual modulo B^2, each an image with its
    zero parts left out.  Both are linear, so each monomial in the unknowns
    is split on its own: its residual is taken off first, and one solve
    lifts the rest of every monomial at once.
    """
    alg = target.algebra
    basis1, basis2 = alg.basis(1), alg.basis(2)
    span = target.coboundaries(2)
    vecs, residual = [], {}
    for mono, v in img.items():
        vec = dict_coords(alg, v, 2)
        r, scale = span.reduce(vec)
        if r:
            rest = {j: Fraction(x, scale) for j, x in r.items()}
            residual[mono] = Multivector(alg, {basis2[j]: c for j, c in rest.items()})
            for j, c in rest.items():
                vec[j] = vec.get(j, 0) - c
        vecs.append(vec)
    lift = {
        mono: Multivector(alg, {basis1[j]: c for j, c in x.items()})
        for mono, x in zip(img, target.differential_matrix(1).solve(vecs))
        if x
    }
    return lift, residual


def dga_map_solve(
    source: CDGA,
    target: CDGA,
    constraints: Mapping[str, Multivector | str] | None = None,
) -> MapSolveResult:
    """Search for a chain map with the given fixed images, exactly.

    A constraint fixes the image of a source generator: a ``Multivector`` of
    the target's algebra, or an expression parsed there.  Every other
    generator receives a particular lift of its transgression image plus
    free closed directions, the target's H^1 representatives.  Compatibility with
    both differentials becomes a polynomial system in the unknown
    coefficients: a linear system is eliminated exactly.  A non-linear one,
    within ``ELIMINATION_BOUND`` unknowns, is unsatisfiable when a Groebner
    basis of its equations is the unit ideal; otherwise, when they use at
    most six unknowns, a grid of points with entries in -2..2 is searched
    over those, the others zero, and the status is ``unknown`` when none
    solves it.

    The map on H^1 is the caller's to fix.  The report fixes the stage-0
    generators of the degree-1 tower, which span the tower's Z^1 since every
    later stage transgresses classes independent modulo B^2, to a basis of
    H^1 of the target, so each solution is an isomorphism there.
    """
    if not isinstance(target, CDGA):
        raise TypeError(f"unsupported chain-map target {type(target).__name__}")
    if any(g.degree != 1 for g in source.algebra.generators):
        raise ValueError("source must be generated in degree 1")
    order = _nilpotent_order(source)
    if order is None:
        raise ValueError("source differential admits no nilpotent order")
    alg = target.algebra
    constraints = dict(constraints or {})
    for name in constraints:
        source.algebra.index_of(name)
    names = [g.name for g in source.algebra.generators]

    def as_element(value):
        if isinstance(value, str):
            value = alg.parse(value)
        elif value.algebra != alg:
            raise AlgebraError(f"image {value} belongs to a different algebra")
        # degree raises on mixed degrees and is None for zero
        if value.degree not in (None, 1):
            raise ValueError(
                f"image {value} of a degree-one generator has degree {value.degree}"
            )
        return value

    # Z^1 = H^1: its representatives are the closed directions
    coh1 = target.cohomology(1)

    # one unknown per closed direction of a free generator
    nparams = coh1.dim * sum(name not in constraints for name in names)
    unknowns = iter(range(nparams))

    images: list[Image] = [{} for _ in names]
    # each equation with (what, name, key) for the note of an inconsistent one
    equations: list[tuple[Poly, tuple[str, str, Monomial]]] = []

    def extend(v: Multivector) -> Image:
        """The multiplicative extension of the images so far, at v."""
        terms = []
        for mono, c in v.terms.items():
            cur = {(): alg.one().scale(c)}
            for i in mono:
                cur = _gather(
                    (tuple(sorted(u + w)), x * y)
                    for u, x in cur.items()
                    for w, y in images[i].items()
                )
            terms += cur.items()
        return _gather(terms)

    for i in order:
        name = names[i]
        rhs = extend(source.d_generator(name))
        if name in constraints:
            value = as_element(constraints[name])
            img, what = {(): value}, "chain condition"
            rest = _gather([((), target.d(value))] + [(mono, -v) for mono, v in rhs.items()])
        else:
            (img, rest), what = _split_by_span(target, rhs), "exactness obstruction"
            img.update(((next(unknowns),), z) for z in coh1.representatives)
        polys = _transpose(rest)
        equations += ((polys[key], (what, name, key)) for key in sorted(polys))
        images[i] = img

    linear = all(len(mono) <= 1 for p, _ in equations for mono in p) and all(
        len(mono) <= 1 for img in images for mono in img
    )

    if linear:
        # unknown i is column i and the constant term is column nparams; a
        # pivot there is a row 0 = c, first reached by an inconsistent equation
        system = Echelon()
        for poly, (what, name, key) in equations:
            system.add({mono[0] if mono else nparams: c for mono, c in poly.items()})
            if system.pivots and system.pivots[-1] == nparams:
                return MapSolveResult(
                    "unsatisfiable",
                    None,
                    f"inconsistent equation: {what} at {name!r}, coordinate {alg.monomial(key)}",
                    nparams,
                    len(equations),
                )
        # consistent, so the constant column is free: its null vector scaled
        # to 1 there is the solution with every free unknown zero
        [(f, k)] = system.null_vectors([nparams])
        values = [Fraction(k.get(i, 0), k[f]) for i in range(nparams)]
    else:
        if nparams > ELIMINATION_BOUND:
            raise EliminationBoundError(nparams)
        polys = [p for p, _ in equations]
        if groebner_leads(polys, nparams) == [(0,) * nparams]:
            return MapSolveResult(
                "unsatisfiable",
                None,
                "the polynomial system has no solution over any field extension",
                nparams,
                len(equations),
            )
        # bounded deterministic search for a rational solution over the
        # unknowns the equations use; the rest stay zero, as on the linear path
        used = sorted({i for p in polys for mono in p for i in mono})
        values = [0] * nparams
        grid = itertools.product(range(-2, 3), repeat=len(used)) if len(used) <= 6 else ()
        for point in grid:
            for i, v in zip(used, point):
                values[i] = v
            if all(poly_value(q, values) == 0 for q in polys):
                break
        else:
            return MapSolveResult(
                "unknown",
                None,
                None,
                nparams,
                len(equations),
                "no rational solution found within the search bounds",
            )

    solved = [
        Multivector(alg, {key: poly_value(p, values) for key, p in _transpose(img).items()})
        for img in images
    ]
    for i, name in enumerate(names):
        lhs = target.d(solved[i])
        rhs = apply_chain_map(solved, source.d_generator(name), target)
        if not (lhs - rhs).is_zero():
            raise RuntimeError(f"chain-map verification failed at {name!r}")
    return MapSolveResult(
        "solution", dict(zip(names, solved)), None, nparams, len(equations)
    )


# -- the aggregate report -------------------------------------------------


def formality_report(
    c: CDGA,
    k_max: int,
    *,
    seed: int = 0,
    decomposition: Sequence[str] | None = None,
) -> FormalityReport:
    """Run all applicable rules and merge their evidence monotonically.

    A vanishing differential settles everything at once.  A 2-step model
    (`is_twostep`) is k-formal exactly when its cohomology is generated in
    degree one up to H^(k+1), so one `generated_in_degree_one_upto` call to
    H^(k_max+1) decides every degree.  Everything else collects sufficient
    certificates, generation and resonance obstructions, the vanishing-top
    upgrade, and, for degree one, a verdict from the normalized chain-map
    search out of the degree-1 tower of the cohomology, its stage 0 fixed
    to the H^1 representatives of ``c``.  ``decomposition`` is a complement
    for the certificate, as generator names.

    Generation climbs cochains, with no class basis, to its first failure
    H^q, so degrees q-1 and up are not formal and resonance searches only
    the degrees below q-1: a point there or above could change no verdict.
    Every not-formal rule speaks to a degree of at least 1, so the
    certificate is always asked for some k >= 0 and always gives evidence;
    it reads each Betti number from two ranks, which the climb has cached.
    The degree-1 rules and the vanishing-top upgrade read cochains: only a
    resonance witness or sampling in degree 2 and up builds a ring.
    """
    _require_model(c)
    report = FormalityReport(k_max)

    if full_formality(c) == OVERALL_FORMAL:
        report.overall = OVERALL_FORMAL
        report.add(
            Evidence(
                "rationally-abelian",
                k_max,
                "formal",
                "the differential vanishes, so the model is its own cohomology",
            )
        )
        return report
    report.overall = OVERALL_NOT_FORMAL
    report.add(
        Evidence(
            "rationally-abelian",
            k_max,
            "info",
            "nonzero differential: not formal as a whole, partial degrees "
            "decided separately",
        )
    )

    if is_twostep(c):
        v = generated_in_degree_one_upto(c, k_max + 1)
        if v.generated:
            report.add(
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
            report.add(
                Evidence(
                    "two-step-decision",
                    q - 2,
                    "formal",
                    f"2-step model generated in degree one up to H^{q - 1}",
                )
            )
            report.add(
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
        report.add(ev)
    # a resonance point at or above the least not-formal degree decides nothing
    s = k_max if report.least_not_formal is None else report.least_not_formal - 1
    ev = obstruction_resonance(c, s, seed=seed)
    if ev is not None:
        report.add(ev)

    # the largest k not ruled out, >= 0; the certificate falls back to the largest it can certify
    k = k_max if report.least_not_formal is None else report.least_not_formal - 1
    report.add(certify_prop_art(c, k, decomposition))

    if k_max >= 1 and report.verdict(1) == INCONCLUSIVE:
        try:
            tower = bigraded_tower(c, stage_cap=TOWER_CAP)
            # stage-0 generator i is fixed to H^1 representative i
            constraints = dict(zip(tower.stages[0], c.cohomology(1).representatives))
            res = dga_map_solve(tower.cdga, c, constraints)
            if res.status == "unsatisfiable":
                report.add(
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
                report.add(
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
                report.add(Evidence("morphism-solver", 1, "info", detail))
        except EliminationBoundError as exc:
            report.bound_exceeded = True
            report.add(
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
            infer_prop_k2(report, c, best)
    return report
