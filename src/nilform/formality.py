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
    RingElement,
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

    def mark_formal_upto(self, k: int, ev: Evidence) -> None:
        for j in range(0, min(k, self.k_max) + 1):
            if self._verdicts[j] == NOT_FORMAL:
                raise RuntimeError(
                    f"conflicting certificates: degree {j} is already not formal"
                )
            self._verdicts[j] = FORMAL
        self.evidence.append(ev)

    def mark_not_formal_from(self, k: int, ev: Evidence) -> None:
        for j in range(max(k, 0), self.k_max + 1):
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

    def sorted_evidence(self) -> list[Evidence]:
        return sorted(self.evidence, key=lambda e: (e.rule, e.k, e.kind, e.detail))


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
    """Closed part and chosen complement of the degree-1 generator space."""

    kernel: tuple[Vec, ...]
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
    """Closed kernel plus the unit-vector complement in declaration order."""
    kernel = c.differential_matrix(1).kernel()
    span = Echelon(len(c.algebra.generators))
    for vec in kernel:
        span.add(vec)
    pivots = set(span.pivots)
    complement = tuple(
        {j: Fraction(1)}
        for j in range(len(c.algebra.generators))
        if j not in pivots
    )
    return Decomposition(tuple(kernel), complement)


def decomposition_from_names(c: CDGA, names: Sequence[str]) -> Decomposition:
    """Complement picked as a set of generators; validated against the kernel."""
    idx = [c.algebra.index_of(n) for n in names]
    dec = Decomposition(
        default_decomposition(c).kernel,
        tuple({j: Fraction(1)} for j in idx),
    )
    validate_decomposition(c, dec)
    return dec


def validate_decomposition(c: CDGA, dec: Decomposition) -> None:
    n = len(c.algebra.generators)
    nullity = n - c.differential_matrix(1).rank()
    kspan = Echelon(n)
    for vec in dec.kernel:
        v = c.algebra.from_coordinates(1, [vec.get(j, Fraction(0)) for j in range(n)])
        if not c.d(v).is_zero():
            raise ValueError("invalid decomposition: kernel vector is not closed")
        kspan.add(vec)
    if kspan.rank != nullity or len(dec.kernel) != nullity:
        raise ValueError("invalid decomposition: kernel part has wrong dimension")
    total = Echelon(n)
    for vec in dec.kernel + dec.complement:
        if not total.add(vec):
            raise ValueError("invalid decomposition: vectors are dependent")
    if total.rank != n:
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


def obstruction_resonance(
    c: CDGA, s: int, *, seed: int = 0, budget: int = 60
) -> Evidence | None:
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
        point = find_resonance_point(r, i, seed=seed, budget=budget)
        if point is not None:
            return Evidence(
                "resonance",
                i,
                "not_formal",
                f"nonzero point of the degree-{i} resonance variety",
                {"degree": i, "point": [str(x) for x in point]},
            )
    return None


def certify_prop_art(
    c: CDGA, k: int, dec: Decomposition | None = None
) -> Evidence | None:
    """Sufficient certificate: the complement ideal meets cocycles in exacts.

    Checks, for every degree q <= k+1, that each cocycle inside the ideal I
    generated by the complement of the closed degree-1 part is a coboundary.
    I cap Z^q is the kernel of d_q on I and always holds I cap B^q, so it
    lies in B^q exactly when rank d_q(I) = rank(I + B^q) - rank B^q.
    Passing certifies k-formality; failing certifies nothing.
    """
    _require_model(c)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if dec is None:
        dec = default_decomposition(c)
    validate_decomposition(c, dec)
    alg = c.algebra
    n = len(alg.generators)
    complement_mvs = [
        alg.from_coordinates(1, [v.get(j, Fraction(0)) for j in range(n)])
        for v in dec.complement
    ]
    for q in range(1, min(k + 1, alg.top_degree()) + 1):
        d_q = c.differential_matrix(q)
        ideal_plus_image = Echelon(alg.dim(q))
        for col in c.differential_matrix(q - 1).cols:
            ideal_plus_image.add(col)
        image_rank = ideal_plus_image.rank
        d_ideal = Echelon(alg.dim(q + 1))
        for nv in complement_mvs:
            for mono in alg.basis(q - 1):
                w = nv * alg.monomial(mono)
                if not w.is_zero():
                    row = dict_coords(alg, w, q)
                    ideal_plus_image.add(row)
                    d_ideal.add(d_q.apply(row))
        if d_ideal.rank != ideal_plus_image.rank - image_rank:
            return None
    names = dec.complement_names(alg)
    return Evidence(
        "prop-art-certificate",
        k,
        "formal",
        "every cocycle in the ideal of the chosen complement is exact "
        f"up to degree {k + 1}",
        {"complement": list(names) if names else "custom vectors"},
    )


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
    wedge = Echelon(alg.dim(2))
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
    report.mark_formal_upto(report.k_max, ev)
    report.overall = OVERALL_FORMAL
    return ev


# -- chain-map targets ----------------------------------------------------


class _CdgaTarget:
    """A CDGA viewed as the target of chain maps."""

    kind = "cdga"

    def __init__(self, c: CDGA):
        self.cdga = c
        self.alg = c.algebra

    def zero(self):
        return self.alg.zero()

    def unit(self):
        return self.alg.one()

    def check_max(self, q: int) -> None:
        pass

    def h_dim(self, q: int) -> int:
        return self.cdga.cohomology(q).dim

    def class_coords(self, elem, q: int) -> list[Fraction]:
        return self.cdga.cohomology(q).reduction(elem)

    def h_rep(self, q: int, i: int):
        return self.cdga.cohomology(q).representatives[i]

    def lift_exact(self, elem):
        return self.cdga.is_coboundary(elem)

    def d(self, elem):
        return self.cdga.d(elem)

    # polynomial-coefficient support
    def ambient_keys(self, q: int) -> list:
        return list(self.alg.basis(q))

    def key_label(self, key) -> str:
        return str(self.alg.monomial(key))

    def unit_key(self):
        return ()

    def pair_product(self, ka, kb):
        res = self.alg.monomial_product(ka, kb)
        if res is None:
            return []
        sign, mono = res
        return [(mono, Fraction(sign))]

    def d_key(self, key):
        dv = self.cdga._d_monomial(key)
        return list(dv.terms.items())

    def elem_terms(self, elem) -> dict:
        return dict(elem.terms)

    def elem_from_terms(self, terms: dict):
        out = self.alg.zero()
        for key, c in terms.items():
            if c:
                out = out + self.alg.monomial(key).scale(c)
        return out

    def exact_columns(self, q: int):
        """Pairs (primitive element, differential coordinates in degree q)."""
        out = []
        for mono in self.alg.basis(q - 1):
            dv = self.cdga._d_monomial(mono)
            if not dv.is_zero():
                out.append((self.alg.monomial(mono), dict(dv.terms)))
        return out

    def kernel_elements(self, q: int):
        basis = self.alg.basis(q)
        out = []
        for vec in self.cdga.differential_matrix(q).kernel():
            out.append(
                self.alg.from_coordinates(
                    q, [vec.get(i, Fraction(0)) for i in range(len(basis))]
                )
            )
        return out

    def gen_key(self, name: str):
        return (self.alg.index_of(name),)


class _RingTarget:
    """A cohomology ring with zero differential as a chain-map target."""

    kind = "ring"

    def __init__(self, r: RingPresentation):
        self.ring = r

    def zero(self):
        return RingElement(self.ring, {})

    def unit(self):
        return self.ring.unit()

    def check_max(self, q: int) -> None:
        if q > self.ring.max_degree:
            raise CutoffError(
                f"need ring degree {q} but cutoff is {self.ring.max_degree}"
            )

    def h_dim(self, q: int) -> int:
        return self.ring.dim(q)

    def class_coords(self, elem, q: int) -> list[Fraction]:
        part = elem.part(q)
        return [part.get(i, Fraction(0)) for i in range(self.ring.dim(q))]

    def h_rep(self, q: int, i: int):
        return self.ring.h_class(q, i)

    def lift_exact(self, elem):
        return self.zero() if elem.is_zero() else None

    def d(self, elem):
        return self.zero()

    def ambient_keys(self, q: int) -> list:
        return [(q, i) for i in range(self.ring.dim(q))]

    def key_label(self, key) -> str:
        q, i = key
        return f"[{self.ring.labels(q)[i]}]"

    def unit_key(self):
        return (0, 0)

    def pair_product(self, ka, kb):
        qa, ia = ka
        qb, ib = kb
        coords = self.ring.product_coords(qa, ia, qb, ib)
        return [((qa + qb, j), c) for j, c in sorted(coords.items())]

    def d_key(self, key):
        return []

    def elem_terms(self, elem) -> dict:
        out = {}
        for q, part in elem.parts.items():
            for i, c in part.items():
                out[(q, i)] = c
        return out

    def elem_from_terms(self, terms: dict):
        parts: dict[int, Vec] = {}
        for (q, i), c in terms.items():
            if c:
                parts.setdefault(q, {})[i] = c
        return RingElement(self.ring, parts)

    def exact_columns(self, q: int):
        return []

    def kernel_elements(self, q: int):
        return [self.ring.h_class(q, i) for i in range(self.ring.dim(q))]

    def gen_key(self, name: str):
        for i, lab in enumerate(self.ring.labels(1)):
            if lab == name:
                return (1, i)
        raise ValueError(f"no degree-1 class labeled {name!r}")


def _wrap_target(target):
    if isinstance(target, CDGA):
        return _CdgaTarget(target)
    if isinstance(target, RingPresentation):
        return _RingTarget(target)
    raise TypeError(f"unsupported chain-map target {type(target).__name__}")


def apply_chain_map(images: Sequence, v: Multivector, target) -> object:
    """Multiplicative extension of generator images to a multivector."""
    tgt = _wrap_target(target)
    out = tgt.zero()
    for mono, c in sorted(v.terms.items()):
        cur = tgt.unit()
        for i in mono:
            cur = cur * images[i]
        out = out + cur.scale(c)
    return out


# -- minimal model extension ----------------------------------------------


@dataclass
class ExtensionResult:
    """A partial minimal model extended by one degree, wave by wave."""

    cdga: CDGA
    images: dict[str, object]
    waves: list[list[str]]
    truncated: bool


def _unique_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name = name + "_"
    taken.add(name)
    return name


def extend_minimal_model(
    stage: CDGA,
    images: Mapping[str, object],
    target: CDGA | RingPresentation,
    k: int,
    *,
    stage_cap: int = 8,
    namer=None,
) -> ExtensionResult:
    """Add degree-(k+1) generators making the map iso through k+1, mono at k+2.

    Wave 0 adds closed generators covering the cokernel in degree k+1; the
    following waves transgress kernel classes one degree higher until the
    kernel empties or the wave cap is hit (reported as truncation).  Every
    added generator keeps the chain-map property of the extended images.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    tgt = _wrap_target(target)
    tgt.check_max(k + 2)
    taken = {g.name for g in stage.algebra.generators}
    img_by_name = dict(images)
    missing = taken - set(img_by_name)
    if missing:
        raise ValueError(f"missing images for generators {sorted(missing)}")

    def img_list(c: CDGA) -> list:
        return [img_by_name[g.name] for g in c.algebra.generators]

    def image_columns(c: CDGA, q: int) -> list[Vec]:
        """Target class coordinates of the image of each degree-q class of c."""
        imgs = img_list(c)
        return [
            {
                i: x
                for i, x in enumerate(
                    tgt.class_coords(apply_chain_map(imgs, rep, target), q)
                )
                if x
            }
            for rep in c.cohomology(q).representatives
        ]

    # precondition: iso below, mono at k+1
    for q in range(1, k + 2):
        dim = stage.cohomology(q).dim
        cols = image_columns(stage, q)
        rank = SparseMatrix(tgt.h_dim(q), dim, cols).rank()
        if q <= k and (rank < dim or rank < tgt.h_dim(q)):
            raise ValueError(
                f"map is not a cohomology isomorphism in degree {q}"
            )
        if q == k + 1 and rank < dim:
            raise ValueError(
                f"map is not injective on cohomology in degree {q}"
            )

    def default_namer(wave: int, idx: int) -> str:
        return f"v{k + 1}_{wave}_{idx}"

    name_for = namer or default_namer

    # wave 0: cover the cokernel in degree k+1 with closed generators; the
    # last precondition round left the degree-(k+1) columns in cols
    image_span = Echelon(tgt.h_dim(k + 1))
    for col in cols:
        image_span.add(col)
    pivots = set(image_span.pivots)
    additions = []
    wave_names: list[str] = []
    for idx, j in enumerate(
        j for j in range(tgt.h_dim(k + 1)) if j not in pivots
    ):
        name = _unique_name(name_for(0, idx), taken)
        additions.append((Generator(name, k + 1, word=0), stage.algebra.zero()))
        img_by_name[name] = tgt.h_rep(k + 1, j)
        wave_names.append(name)
    cur = hirsch_extend(stage, additions)
    waves = [wave_names]

    truncated = True
    for wave in range(1, stage_cap + 1):
        coh2 = cur.cohomology(k + 2)
        cols = image_columns(cur, k + 2)
        kern = SparseMatrix(tgt.h_dim(k + 2), coh2.dim, cols).kernel()
        if not kern:
            truncated = False
            break
        additions = []
        wave_names = []
        for idx, vec in enumerate(kern):
            trans = coh2.class_of([vec.get(t, Fraction(0)) for t in range(coh2.dim)])
            name = _unique_name(name_for(wave, idx), taken)
            val = apply_chain_map(img_list(cur), trans, target)
            lifted = tgt.lift_exact(val)
            if lifted is None:
                raise RuntimeError(
                    "kernel transgression image is not exact in the target"
                )
            additions.append((Generator(name, k + 1, word=wave), trans))
            img_by_name[name] = lifted
            wave_names.append(name)
        cur = hirsch_extend(cur, additions)
        waves.append(wave_names)

    return ExtensionResult(cur, img_by_name, waves, truncated)


# -- bigraded tower -------------------------------------------------------


@dataclass
class BigradedTower:
    """Degree-1 stages of the bigraded model of a ring with zero differential."""

    ring: RingPresentation
    cdga: CDGA
    images: dict[str, RingElement]
    stages: list[list[str]]
    stabilized: bool

    @property
    def stage_dims(self) -> list[int]:
        return [len(s) for s in self.stages]

    @property
    def total_dim(self) -> int:
        return sum(self.stage_dims)


def bigraded_tower(r: RingPresentation, stage_cap: int = 4) -> BigradedTower:
    """Build degree-1 stages: closed classes first, then transgressed kernels.

    Stage 0 carries one closed generator per degree-1 class; stage i+1
    transgresses the kernel of the stage map on degree-2 cohomology.  The
    tower either stabilizes (empty kernel) or is truncated at the cap.
    """
    if r.max_degree < 2:
        raise CutoffError("bigraded tower needs a ring cutoff of at least 2")
    names = [g.name for g in class_symbol_algebra(r).generators]

    def namer(wave: int, idx: int) -> str:
        return names[idx] if wave == 0 else f"w{wave}_{idx}"

    empty = CDGA(Algebra([]))
    ext = extend_minimal_model(
        empty, {}, r, 0, stage_cap=stage_cap, namer=namer
    )
    return BigradedTower(r, ext.cdga, ext.images, ext.waves, not ext.truncated)


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
    assignment: dict[str, object] | None
    certificate: str | None
    unknowns: int
    equations: int
    detail: str = ""


def _tracked_echelon(keys: Sequence, vectors: Iterable[dict]) -> Echelon:
    """Tracked echelon of key-indexed vectors over the ambient basis ``keys``."""
    index = {k: i for i, k in enumerate(keys)}
    ech = Echelon(len(keys), track=True)
    for vec in vectors:
        ech.add({index[k]: c for k, c in vec.items()})
    return ech


def _split_by_span(ech: Echelon, keys: Sequence, pel: dict, R) -> tuple[dict, dict]:
    """Reduce a poly-vector over ``keys`` modulo a tracked echelon.

    Returns the coefficients over the added vectors and the residual, both
    with entries in the polynomial ring ``R``.  Reduction is linear, so each
    monomial in the unknowns is reduced on its own.
    """
    index = {k: i for i, k in enumerate(keys)}
    by_mono: dict[tuple, Vec] = {}
    for key, p in pel.items():
        for mono, c in p.terms():
            by_mono.setdefault(mono, {})[index[key]] = _fraction(c)
    coeffs: dict[int, dict] = {}
    residual: dict = {}
    for mono, vec in by_mono.items():
        rest, cs = ech.reduce(vec)
        for j, c in rest.items():
            residual.setdefault(keys[j], {})[mono] = _ground(R, c)
        for k, c in enumerate(cs):
            if c:
                coeffs.setdefault(k, {})[mono] = _ground(R, c)
    return (
        {k: R(terms) for k, terms in coeffs.items()},
        {key: R(terms) for key, terms in residual.items()},
    )


def _solution_family(
    system: Echelon, nvars: int
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Particular solution (free unknowns zero) and null-space basis.

    ``system`` holds consistent equations over the unknowns, with the
    constant term in column ``nvars``.
    """
    rows = system.by_pivot
    particular = [Fraction(0)] * nvars
    for pivot, row in rows.items():
        particular[pivot] = Fraction(-row.get(nvars, 0), row[pivot])
    null = []
    for free in range(nvars):
        if free in rows:
            continue
        vec = [Fraction(0)] * nvars
        vec[free] = Fraction(1)
        for pivot, row in rows.items():
            vec[pivot] = Fraction(-row.get(free, 0), row[pivot])
        null.append(vec)
    return particular, null


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
    h1_kernel: Sequence[Vec], images_pel: Sequence[dict], tgt, n_src: int, R
) -> list[list]:
    """Symbolic matrix of the induced map on degree-1 cohomology."""
    keys = tgt.ambient_keys(1)
    classes = _tracked_echelon(
        keys, [tgt.elem_terms(tgt.h_rep(1, i)) for i in range(tgt.h_dim(1))]
    )
    entries = []
    for vec in h1_kernel:
        ambient: dict = {}
        for i in range(n_src):
            c = vec.get(i)
            if not c:
                continue
            for key, p in images_pel[i].items():
                ambient[key] = ambient.get(key, R.zero) + p.mul_ground(_ground(R, c))
        coords, _ = _split_by_span(classes, keys, ambient, R)
        entries.append([coords.get(j, R.zero) for j in range(len(h1_kernel))])
    return entries


def dga_map_solve(
    source: CDGA,
    target: CDGA | RingPresentation,
    constraints: Mapping[str, object] | None = None,
    *,
    nonzero: Sequence[tuple[str, str]] = (),
    require_h1_iso: bool = False,
    elimination_bound: int = 12,
) -> MapSolveResult:
    """Search for a chain map respecting constraints, exactly.

    Fixed images and affine templates pin some generators; the rest receive
    a particular lift of their transgression image plus free closed
    directions.  Compatibility with both differentials becomes a polynomial
    system in the unknown coefficients: linear systems are eliminated
    exactly, and non-vanishing side conditions (specific coefficients, or
    invertibility on degree one) are settled symbolically on the solution
    family.  Non-linear systems go through a Groebner basis when the
    unknown count stays within the elimination bound.
    """
    from sympy import Symbol
    from sympy.polys.domains import QQ
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import ring

    if any(g.degree != 1 for g in source.algebra.generators):
        raise ValueError("source must be generated in degree 1")
    order = _nilpotent_order(source)
    if order is None:
        raise ValueError("source differential admits no nilpotent order")
    tgt = _wrap_target(target)
    tgt.check_max(2)
    constraints = dict(constraints or {})
    for name in constraints:
        source.algebra.index_of(name)

    def as_element(value):
        if isinstance(value, str):
            if tgt.kind != "cdga":
                raise TypeError("string images need a CDGA target")
            value = tgt.alg.parse(value)
        # degree raises on mixed degrees and is None for zero
        if value.degree not in (None, 1):
            raise ValueError(
                f"image {value} of a degree-one generator has degree {value.degree}"
            )
        return value

    keys2 = tgt.ambient_keys(2)
    exact = tgt.exact_columns(2)
    exact_span = _tracked_echelon(keys2, [coords for _, coords in exact])
    kernel_elems = tgt.kernel_elements(1)
    n_src = len(source.algebra.generators)

    # one unknown per template direction, and per closed direction of a free generator
    labels: list[str] = []
    for i in order:
        name = source.algebra.generators[i].name
        if name not in constraints:
            labels += [f"{name}<{t}>" for t in range(len(kernel_elems))]
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
                prod = pa * pb
                for key, c in tgt.pair_product(ka, kb):
                    add_into(out, key, prod, c)
        return nonzero_part(out)

    def pel_apply(v: Multivector) -> dict:
        out: dict = {}
        for mono, c in sorted(v.terms.items()):
            cur = {tgt.unit_key(): R.one}
            for i in mono:
                cur = pel_mul(cur, images_pel[i])
            for key, p in cur.items():
                add_into(out, key, p, c)
        return nonzero_part(out)

    def pel_d(pel: dict) -> dict:
        out: dict = {}
        for key, p in pel.items():
            for key2, c in tgt.d_key(key):
                add_into(out, key2, p, c)
        return nonzero_part(out)

    def const_pel(elem) -> dict:
        img: dict = {}
        for key, c in tgt.elem_terms(elem).items():
            add_into(img, key, R.one, c)
        return img

    def add_directions(img: dict, directions) -> None:
        for elem in directions:
            x = next(unknowns)
            for key, c in tgt.elem_terms(elem).items():
                add_into(img, key, x, c)

    for i in order:
        gen = source.algebra.generators[i]
        dv = source.d_generator(gen.name)
        rhs = pel_apply(dv)
        if gen.name in constraints:
            spec = constraints[gen.name]
            if isinstance(spec, MapTemplate):
                img = const_pel(as_element(spec.base))
                add_directions(img, [as_element(e) for e in spec.freedom])
            else:
                img = const_pel(as_element(spec))
            img = nonzero_part(img)
            lhs = pel_d(img)
            for key in sorted(set(lhs) | set(rhs)):
                poly = lhs.get(key, R.zero) - rhs.get(key, R.zero)
                if poly:
                    note = (
                        f"chain condition at {gen.name!r}, "
                        f"coordinate {tgt.key_label(key)}"
                    )
                    equations.append((poly, note))
        else:
            lift, residual = _split_by_span(exact_span, keys2, rhs, R)
            for key in sorted(residual):
                note = (
                    f"exactness obstruction at {gen.name!r}, "
                    f"coordinate {tgt.key_label(key)}"
                )
                equations.append((residual[key], note))
            img = {}
            for col, poly in sorted(lift.items()):
                for key, c in tgt.elem_terms(exact[col][0]).items():
                    add_into(img, key, poly, c)
            add_directions(img, kernel_elems)
            img = nonzero_part(img)
        images_pel[i] = img

    # side conditions: explicit non-vanishing coefficients, optional iso
    conditions: list[tuple[object, str]] = []
    for gen_name, target_name in nonzero:
        i = source.algebra.index_of(gen_name)
        key = tgt.gen_key(target_name)
        conditions.append(
            (
                images_pel[i].get(key, R.zero),
                f"coefficient of {target_name} in the image of {gen_name!r}",
            )
        )
    h1_matrix: list[list] = []
    if require_h1_iso:
        h1_kernel = source.differential_matrix(1).kernel()
        n1 = len(h1_kernel)
        if n1 != tgt.h_dim(1):
            return MapSolveResult(
                "unsatisfiable",
                None,
                f"closed degree-one dimensions differ: source {n1}, "
                f"target {tgt.h_dim(1)}",
                nparams,
                len(equations),
            )
        h1_matrix = _h1_class_matrix_polys(h1_kernel, images_pel, tgt, n_src, R)
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
        system = Echelon(nparams + 1)
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
        particular, null = _solution_family(system, nparams)
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
        if nparams > elimination_bound:
            residual = "; ".join(f"{p} = 0" for p, _ in equations[:6])
            raise EliminationBoundError(nparams, elimination_bound, residual)
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

    assignment: dict[str, object] = {}
    images_exact: list[object] = [None] * n_src
    for i in range(n_src):
        terms = {key: _evaluate(p, values) for key, p in images_pel[i].items()}
        elem = tgt.elem_from_terms({k: c for k, c in terms.items() if c})
        images_exact[i] = elem
        assignment[source.algebra.generators[i].name] = elem
    for i in range(n_src):
        gen = source.algebra.generators[i]
        lhs = tgt.d(images_exact[i])
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
        span = Echelon(len(h1_matrix))
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
    tower_cap: int = 6,
    elimination_bound: int = 12,
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
            k_max,
            Evidence(
                "rationally-abelian",
                k_max,
                "formal",
                "the differential vanishes, so the model is its own cohomology",
            ),
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
                k_max,
                Evidence(
                    "two-step-decision",
                    k_max,
                    "formal",
                    f"2-step model with H^q generated in degree one for "
                    f"q <= {k_max + 1}",
                ),
            )
        else:
            q = v.failure_degree
            if q - 2 >= 0:
                report.mark_formal_upto(
                    q - 2,
                    Evidence(
                        "two-step-decision",
                        q - 2,
                        "formal",
                        f"2-step model generated in degree one up to H^{q - 1}",
                    ),
                )
            report.mark_not_formal_from(
                q - 1,
                Evidence(
                    "two-step-decision",
                    q - 1,
                    "not_formal",
                    f"2-step model with H^{q} not generated in degree one "
                    f"(cokernel dimension {v.cokernel_dim})",
                    {"failure_degree": q, "cokernel_dim": v.cokernel_dim},
                ),
            )
        return report

    ev = obstruction_generation(c, k_max)
    if ev is not None:
        report.mark_not_formal_from(ev.k, ev)
    ev = obstruction_resonance(c, max(k_max, 1), seed=seed)
    if ev is not None and report.verdict(min(ev.k, k_max)) != NOT_FORMAL:
        report.mark_not_formal_from(ev.k, ev)
    elif ev is not None:
        report.add_info(ev)

    if decomposition is None:
        decomposition = default_decomposition(c)
    for k in range(k_max, -1, -1):
        if report.verdict(k) == NOT_FORMAL:
            continue
        cert = certify_prop_art(c, k, decomposition)
        if cert is not None:
            report.mark_formal_upto(k, cert)
            break

    if report.verdict(min(1, k_max)) == INCONCLUSIVE and k_max >= 1:
        try:
            tower = bigraded_tower(from_cdga(c, 2), stage_cap=tower_cap)
            coh1 = c.cohomology(1)
            constraints = {
                name: coh1.representatives[j]
                for j, name in enumerate(tower.stages[0])
            }
            res = dga_map_solve(
                tower.cdga,
                c,
                constraints,
                require_h1_iso=True,
                elimination_bound=elimination_bound,
            )
            if res.status == "unsatisfiable":
                report.mark_not_formal_from(
                    1,
                    Evidence(
                        "morphism-solver",
                        1,
                        "not_formal",
                        "no normalized chain map from the degree-1 tower of "
                        f"the cohomology exists: {res.certificate}",
                        {"unknowns": res.unknowns, "equations": res.equations},
                    ),
                )
            elif res.status == "solution" and tower.stabilized:
                report.mark_formal_upto(
                    1,
                    Evidence(
                        "morphism-solver",
                        1,
                        "formal",
                        "normalized isomorphism onto the degree-1 tower of "
                        "the cohomology found",
                        {"unknowns": res.unknowns},
                    ),
                )
            else:
                detail = f"chain-map search inconclusive: {res.detail or res.status}"
                if not tower.stabilized:
                    report.bound_exceeded = True
                    detail += (
                        f"; the degree-1 tower was truncated at stage cap {tower_cap}"
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
