"""Tests for partial formality verdicts, certificates, and the map solver."""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from nilform import formality
from nilform.catalog import (
    central_extension,
    example_contr,
    example_initial,
    free_abelian,
    heisenberg,
    heisenberg_type,
)
from nilform.cdga import CDGA, dict_coords, hirsch_extend, tensor
from nilform.formality import (
    FORMAL,
    INCONCLUSIVE,
    NOT_FORMAL,
    OVERALL_FORMAL,
    OVERALL_NOT_FORMAL,
    RULES,
    BigradedTower,
    Decomposition,
    EliminationBoundError,
    Evidence,
    FormalityReport,
    MapTemplate,
    NotTwoStep,
    apply_chain_map,
    bigraded_tower,
    certify_prop_art,
    decide_twostep,
    decomposition_from_names,
    default_decomposition,
    dga_map_solve,
    formality_report,
    full_formality,
    infer_prop_k2,
    is_twostep,
    obstruction_generation,
    obstruction_resonance,
    validate_decomposition,
)
from nilform.gca import Algebra, Generator
from nilform.linalg import Echelon, SparseMatrix
from nilform.resonance import decide_r11_trivial, find_resonance_point
from nilform.ring import CutoffError, class_symbol_algebra, from_cdga, generated_in_degree_one_upto
from test_ring import REPRESENTATIVE_MODELS
from tracked_reference import _WalkEchelon


# -- report bookkeeping ---------------------------------------------------


def test_evidence_rejects_unknown_rule():
    with pytest.raises(ValueError):
        Evidence("no-such-rule", 0, "formal", "x")
    with pytest.raises(ValueError):
        Evidence("generation", 0, "maybe", "x")


def test_report_marking_and_extremes():
    rep = FormalityReport(4)
    assert rep.verdicts() == [INCONCLUSIVE] * 5
    assert rep.best_formal is None and rep.least_not_formal is None
    rep.mark_formal_upto(Evidence("generation", 1, "formal", "a"))
    rep.mark_not_formal_from(Evidence("generation", 3, "not_formal", "b"))
    assert rep.verdicts() == [FORMAL, FORMAL, INCONCLUSIVE, NOT_FORMAL, NOT_FORMAL]
    assert rep.best_formal == 1
    assert rep.least_not_formal == 3


def test_report_conflict_raises():
    rep = FormalityReport(2)
    rep.mark_formal_upto(Evidence("generation", 2, "formal", "a"))
    with pytest.raises(RuntimeError):
        rep.mark_not_formal_from(Evidence("generation", 1, "not_formal", "b"))


def test_report_verdict_range_checked():
    rep = FormalityReport(1)
    with pytest.raises(ValueError):
        rep.verdict(2)
    with pytest.raises(ValueError):
        FormalityReport(-1)


def test_sorted_evidence_is_deterministic():
    rep = FormalityReport(1)
    first = Evidence("resonance", 1, "info", "b")
    second = Evidence("generation", 0, "info", "a")
    rep.add_info(first)
    rep.add_info(second)
    # evidence is kept in the order the rules add it
    assert rep.evidence == [first, second]


# -- model preconditions --------------------------------------------------


def test_rejects_higher_degree_generators():
    alg = Algebra([Generator("a", 1), Generator("u", 2)])
    c = CDGA(alg)
    with pytest.raises(ValueError):
        full_formality(c)


def test_rejects_non_nilpotent_differential():
    alg = Algebra([Generator("a", 1), Generator("b", 1)])
    c = CDGA(alg, {"b": "a*b"})
    with pytest.raises(ValueError):
        full_formality(c)


def test_full_formality_values():
    assert full_formality(free_abelian(["e1", "e2", "e3"])) == OVERALL_FORMAL
    for n in (1, 2, 3):
        assert full_formality(heisenberg(n)) == OVERALL_NOT_FORMAL


# -- decompositions -------------------------------------------------------


def test_default_decomposition_heisenberg():
    c = heisenberg(2)
    dec = default_decomposition(c)
    assert dec.complement_names(c.algebra) == ("z",)
    validate_decomposition(c, dec)


def test_decomposition_from_names_checks_membership():
    c = heisenberg(1)
    dec = decomposition_from_names(c, ["z"])
    assert dec.complement_names(c.algebra) == ("z",)
    with pytest.raises(ValueError):
        decomposition_from_names(c, ["x1"])


def test_decomposition_wrong_sizes_rejected():
    c = heisenberg(1)
    good = default_decomposition(c)
    validate_decomposition(c, good)
    with pytest.raises(ValueError, match="parts do not span degree 1"):
        validate_decomposition(c, Decomposition(()))


def test_abelian_decomposition_has_empty_complement():
    c = free_abelian(["e1", "e2"])
    dec = default_decomposition(c)
    assert dec.complement == ()
    validate_decomposition(c, dec)


# -- obstructions ---------------------------------------------------------


def test_generation_obstruction_first_heisenberg():
    ev = obstruction_generation(heisenberg(1), 1)
    assert ev is not None
    assert ev.rule == "generation" and ev.kind == "not_formal"
    assert ev.k == 1
    assert ev.data["failure_degree"] == 2
    assert ev.data["cokernel_dim"] == 2


def test_generation_obstruction_silent_when_generated():
    assert obstruction_generation(heisenberg(3), 2) is None
    assert obstruction_generation(free_abelian(["e1", "e2"]), 4) is None


def test_resonance_obstruction_first_heisenberg():
    ev = obstruction_resonance(heisenberg(1), 1, seed=3)
    assert ev is not None
    assert ev.rule == "resonance" and ev.k == 1
    assert ev.data["degree"] == 1


def test_resonance_obstruction_silent_for_larger_heisenberg():
    assert obstruction_resonance(heisenberg(2), 1, seed=3) is None


def test_resonance_obstruction_degree_two_sampling():
    ev = obstruction_resonance(heisenberg(2), 2, seed=1)
    assert ev is not None
    assert ev.rule == "resonance" and ev.k == 2


# -- sufficient certificates ----------------------------------------------


def test_prop_certificate_heisenberg_two():
    ev = certify_prop_art(heisenberg(2), 1)
    assert ev is not None
    assert ev.kind == "formal" and ev.k == 1
    assert ev.data["complement"] == ["z"]


def test_prop_certificate_refuses_nothing_for_heisenberg_one():
    assert certify_prop_art(heisenberg(1), 0).k == 0
    # degree 2 fails, so asking for k = 1 certifies only k = 0
    assert certify_prop_art(heisenberg(1), 1).k == 0


def test_prop_certificate_abelian_all_degrees():
    c = free_abelian(["e1", "e2"])
    for k in (0, 1, 3, 5):
        assert certify_prop_art(c, k).k == k


def test_prop_certificate_matches_twostep_decision():
    for n in (1, 2, 3):
        c = heisenberg(n)
        for k in range(0, n + 1):
            cert = certify_prop_art(c, k)
            if cert is not None:
                assert cert.k <= k
                assert decide_twostep(c, cert.k).verdict == FORMAL


def _ideal_cocycles_are_exact(c, dec, q):
    """Oracle: every vector of I_q cap Z^q lies in the span of the d_(q-1) columns.

    I_q cap Z^q is spanned by the ideal parts of the relations between the
    ideal rows and the kernel() columns of d_q.
    """
    alg = c.algebra
    n = len(alg.generators)
    ideal = []
    for v in dec.complement:
        nv = alg.from_coordinates(1, [v.get(j, Fraction(0)) for j in range(n)])
        for mono in alg.basis(q - 1):
            w = nv * alg.monomial(mono)
            if not w.is_zero():
                ideal.append(dict_coords(alg, w, q))
    cocycles = c.differential_matrix(q).kernel()
    both = SparseMatrix(alg.dim(q), len(ideal) + len(cocycles), ideal + cocycles)
    image = Echelon()
    for col in c.differential_matrix(q - 1).cols:
        image.add(col)
    for rel in both.kernel():
        if not image.contains(both.apply({j: x for j, x in rel.items() if j < len(ideal)})):
            return False
    return True


def _prop_art_verdicts_match_the_oracle(c):
    """certify_prop_art(c, k) for k <= 3 against the oracle; whether each k is certified.

    The certified degree is the largest j <= k whose degrees up to j+1 all
    pass the oracle, and there is no evidence when degree 1 fails.
    """
    dec = default_decomposition(c)
    exact = [_ideal_cocycles_are_exact(c, dec, q) for q in range(1, 5)]
    got = [certify_prop_art(c, k) for k in range(4)]
    passing = [j for j in range(4) if all(exact[: j + 1])]
    want = [max((j for j in passing if j <= k), default=None) for k in range(4)]
    assert [None if ev is None else ev.k for ev in got] == want
    return [j == k for k, j in enumerate(want)]


# the certificate admits only degree-1 generators
PROP_ART_MODELS = [p for p in REPRESENTATIVE_MODELS if p.id != "even-generator"]


@pytest.mark.parametrize("build, top", PROP_ART_MODELS)
def test_prop_certificate_rank_criterion_matches_the_intersection(build, top):
    _prop_art_verdicts_match_the_oracle(build())


def test_prop_certificate_rank_criterion_matches_the_intersection_on_the_formality_mix():
    models = _formality_mix_models(seeds=(3,))
    assert len(models) == 176
    verdicts = [v for c in models for v in _prop_art_verdicts_match_the_oracle(c)]
    # both outcomes occur, so neither direction of the criterion goes untested
    assert any(verdicts) and not all(verdicts)


def test_report_checks_the_prop_art_degrees_in_one_pass(monkeypatch):
    calls = []
    for name in ("certify_prop_art", "validate_decomposition"):
        real = getattr(formality, name)
        monkeypatch.setattr(
            formality, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    rep = formality_report(example_contr("y1*y2"), 3)
    monkeypatch.undo()
    # one certificate call, which validates the decomposition once
    assert calls == ["certify_prop_art", "validate_decomposition"]
    assert rep.verdicts() == [FORMAL, NOT_FORMAL, NOT_FORMAL, NOT_FORMAL]
    (ev,) = [e for e in rep.evidence if e.rule == "prop-art-certificate"]
    assert ev == certify_prop_art(example_contr("y1*y2"), 0)
    # degree 2 fails the certificate, so asking for k = 1 certifies only k = 0
    assert certify_prop_art(example_contr("y1*y2"), 1) == ev


# -- two-step decisions ---------------------------------------------------


def test_twostep_recognition():
    assert is_twostep(heisenberg(2))
    assert is_twostep(example_initial())
    assert not is_twostep(example_contr("0"))


def test_twostep_decision_raises_outside_class():
    with pytest.raises(NotTwoStep):
        decide_twostep(example_contr("0"), 1)


def test_twostep_decision_heisenberg_thresholds():
    for n in (1, 2, 3):
        c = heisenberg(n)
        for k in range(0, n + 2):
            want = FORMAL if k <= n - 1 else NOT_FORMAL
            assert decide_twostep(c, k).verdict == want


def test_twostep_decision_heisenberg_type():
    for (m, n) in ((1, 3), (2, 5), (2, 6)):
        c = heisenberg_type(m, n)
        assert decide_twostep(c, m - 1).verdict == FORMAL
        assert decide_twostep(c, m).verdict == NOT_FORMAL


# -- prop-k+2 upgrade -----------------------------------------------------


def test_prop_k2_upgrade_fires_for_small_top_degree():
    c = free_abelian(["e1", "e2"])
    rep = FormalityReport(3)
    rep.mark_formal_upto(Evidence("prop-art-certificate", 1, "formal", "seed"))
    ev = infer_prop_k2(rep, from_cdga(c, 2), 1)
    assert ev is not None and ev.rule == "prop-k+2"
    assert rep.overall == OVERALL_FORMAL
    assert rep.verdicts() == [FORMAL] * 4


def test_prop_k2_upgrade_needs_vanishing_top():
    c = heisenberg(2)
    rep = FormalityReport(2)
    rep.mark_formal_upto(Evidence("prop-art-certificate", 1, "formal", "seed"))
    assert infer_prop_k2(rep, from_cdga(c, 5), 1) is None
    assert rep.overall == INCONCLUSIVE


def test_prop_k2_upgrade_needs_enough_cutoff():
    c = heisenberg(2)
    rep = FormalityReport(1)
    rep.mark_formal_upto(Evidence("prop-art-certificate", 1, "formal", "seed"))
    with pytest.raises(CutoffError):
        infer_prop_k2(rep, from_cdga(c, 3), 1)


def test_prop_k2_requires_formal_verdict():
    c = free_abelian(["e1"])
    rep = FormalityReport(2)
    assert infer_prop_k2(rep, from_cdga(c, 1), 1) is None


# -- chain maps and extensions --------------------------------------------


def test_apply_chain_map_into_cdga():
    c = heisenberg(1)
    images = [c.algebra.gen("y1"), c.algebra.gen("x1"), c.algebra.gen("z").scale(-1)]
    v = c.algebra.parse("x1*y1")
    out = apply_chain_map(images, v, c)
    assert (out - c.algebra.parse("-1*x1*y1")).is_zero()


def _tower_image(r, v):
    """H^2 class coordinates of the image of a degree-2 form of a tower of ``r``.

    Stage-0 generator i maps to class i of H^1 and every later one to 0, so
    only terms g_i g_j with both generators in stage 0 contribute.
    """
    b1 = r.dim(1)
    out = {}
    for mono, c in v.terms.items():
        if max(mono) < b1:
            for t, p in r.product_coords(1, mono[0], 1, mono[1]).items():
                out[t] = out.get(t, 0) + c * p
    return {t: x for t, x in out.items() if x}


def test_extend_minimal_model_covers_cokernel():
    """The tower over (H*, 0) of heisenberg(2): one closed generator per class of H^1."""
    c = heisenberg(2)
    r = from_cdga(c, 2)
    tower = bigraded_tower(r, stage_cap=4)
    assert tower.stage_dims == [4, 1]
    assert tower.stabilized
    names = [g.name for g in tower.cdga.algebra.generators]
    assert names == [g.name for g in class_symbol_algebra(r).generators] + ["w1_0"]
    assert all(tower.cdga.d_generator(n).is_zero() for n in tower.stages[0])
    # the wave-1 generator transgresses the symplectic relation
    t = tower.cdga.d_generator("w1_0")
    assert not t.is_zero() and t.degree == 2


@pytest.mark.parametrize(
    "build, waves, truncated",
    [
        pytest.param(lambda: heisenberg(1), [2, 1, 2, 3], True, id="heisenberg(1)"),
        pytest.param(lambda: heisenberg(2), [4, 1], False, id="heisenberg(2)"),
        pytest.param(lambda: heisenberg(3), [6, 1], False, id="heisenberg(3)"),
        pytest.param(lambda: example_contr("0"), [5, 2, 1], False, id="contr[0]"),
    ],
)
def test_extend_minimal_model_into_the_ring(build, waves, truncated):
    """``bigraded_tower`` extends the minimal model of (H*, 0) by chain maps into the ring."""
    r = from_cdga(build(), 2)
    tower = bigraded_tower(r, stage_cap=3)
    assert tower.stage_dims == waves
    assert tower.stabilized is not truncated
    model = tower.cdga
    for g in model.algebra.generators:
        # a chain map into a ring with zero differential: f(d g) = 0
        assert _tower_image(r, model.d_generator(g.name)) == {}
    if not truncated:
        # stabilized: the last stage maps H^2 injectively into the ring
        coh2 = model.cohomology(2)
        cols = [_tower_image(r, rep) for rep in coh2.representatives]
        assert SparseMatrix(r.dim(2), coh2.dim, cols).rank() == coh2.dim


def test_bigraded_tower_renames_a_wave_name_clash():
    # heisenberg(1) with x1 named like a wave-1 generator
    alg = Algebra([Generator("w1_0", 1), Generator("b", 1), Generator("z", 1)])
    r = from_cdga(CDGA(alg, {"z": "w1_0*b"}), 2)
    tower = bigraded_tower(r, stage_cap=2)
    assert tower.stages == [["w1_0", "b"], ["w1_0_"], ["w2_0", "w2_1"]]
    assert not tower.stabilized


@pytest.mark.parametrize(
    "solve, target, type_name",
    [
        pytest.param(
            lambda t: dga_map_solve(heisenberg(1), t, {}),
            lambda: from_cdga(heisenberg(1), 2),
            "RingPresentation",
            id="solver-into-a-ring",
        ),
    ],
)
def test_chain_map_routines_reject_the_other_target(solve, target, type_name):
    with pytest.raises(TypeError, match=f"unsupported chain-map target {type_name}$"):
        solve(target())


def test_bigraded_tower_first_heisenberg_growth():
    r = from_cdga(heisenberg(1), 2)
    tower = bigraded_tower(r, stage_cap=3)
    assert tower.stage_dims[:3] == [2, 1, 2]
    cum = 0
    seen = []
    for d in tower.stage_dims:
        cum += d
        seen.append(cum)
    assert all(a < b for a, b in zip(seen, seen[1:]))
    assert not tower.stabilized


def test_bigraded_tower_second_heisenberg_stabilizes():
    r = from_cdga(heisenberg(2), 2)
    tower = bigraded_tower(r, stage_cap=5)
    assert tower.stabilized
    assert tower.stage_dims == [4, 1]
    assert tower.total_dim == 5
    assert tower.stages[0] == ["x1", "y1", "x2", "y2"]


def test_bigraded_tower_needs_degree_two():
    r = from_cdga(heisenberg(2), 1)
    with pytest.raises(CutoffError):
        bigraded_tower(r)


# -- the map solver -------------------------------------------------------


def _reference_solution_family(system, nvars):
    """The solver's particular solution and null basis as read off ``by_pivot``,
    before the read-off moved to ``Echelon.null_vectors``; kept as the reference."""
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


def test_solver_family_matches_the_pivot_read_off():
    rng = random.Random(89)
    for _ in range(200):
        nparams = rng.randint(0, 7)
        solution = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nparams)]
        system, equations = Echelon(), []
        for _ in range(rng.randint(0, 8)):
            if equations and rng.random() < 0.3:
                # a dependent equation: a combination of earlier ones
                eq = {}
                for prev in rng.sample(equations, min(2, len(equations))):
                    w = rng.randint(-2, 2)
                    for j, v in prev.items():
                        eq[j] = eq.get(j, 0) + w * v
            else:
                eq = {
                    i: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    for i in range(nparams)
                    if rng.random() < 0.6
                }
                # the constant column makes the solution satisfy it
                eq[nparams] = -sum(v * solution[i] for i, v in eq.items())
            eq = {j: v for j, v in eq.items() if v}
            equations.append(eq)
            system.add(eq)
        assert nparams not in system.pivots
        # the read-off in dga_map_solve: the constant column's null vector
        # gives the particular solution, the free unknowns' the directions
        *null, particular = [
            [Fraction(k.get(i, 0), k[f]) for i in range(nparams)]
            for f, k in system.null_vectors(range(nparams + 1))
        ]
        assert (particular, null) == _reference_solution_family(system, nparams)
        for eq in equations:
            assert sum(v * particular[i] for i, v in eq.items() if i < nparams) == -eq.get(nparams, 0)
            for vec in null:
                assert sum(v * vec[i] for i, v in eq.items() if i < nparams) == 0


def test_solver_identity_with_fixed_images():
    c = heisenberg(2)
    cons = {g.name: g.name for g in c.algebra.generators}
    res = dga_map_solve(c, c, cons)
    assert res.status == "solution"
    assert (res.assignment["z"] - c.algebra.gen("z")).is_zero()


def test_solver_lifts_free_generator_over_cdga():
    c = heisenberg(2)
    cons = {nm: nm for nm in ["x1", "y1", "x2", "y2"]}
    res = dga_map_solve(c, c, cons)
    assert res.status == "solution"
    img = res.assignment["z"]
    assert (c.d(img) - c.d(c.algebra.gen("z"))).is_zero()


def test_solver_tower_onto_formal_model():
    c = heisenberg(2)
    tower = bigraded_tower(from_cdga(c, 2))
    coh1 = c.cohomology(1)
    cons = {nm: coh1.representatives[j] for j, nm in enumerate(tower.stages[0])}
    res = dga_map_solve(tower.cdga, c, cons, require_h1_iso=True)
    assert res.status == "solution"
    assert res.unknowns > 0


def test_solver_tower_refutes_twisted_model():
    c = example_contr("y1*y2")
    tower = bigraded_tower(from_cdga(c, 2), stage_cap=6)
    assert tower.stabilized
    assert tower.stage_dims == [5, 2, 1]
    coh1 = c.cohomology(1)
    cons = {nm: coh1.representatives[j] for j, nm in enumerate(tower.stages[0])}
    res = dga_map_solve(tower.cdga, c, cons, require_h1_iso=True)
    assert res.status == "unsatisfiable"
    assert "y1*y2" in res.certificate


def test_solver_template_normalization_refutes_twist():
    b = example_contr("0")
    m = example_contr("y1*y2")
    closed = ["x1", "x2", "y1", "y2", "z"]
    cons = {nm: nm for nm in closed}
    for nm in ["w1", "w2", "a"]:
        cons[nm] = MapTemplate("0", tuple([nm] + closed))
    res = dga_map_solve(b, m, cons, nonzero=[("a", "a")])
    assert res.status == "unsatisfiable"
    assert res.unknowns == 18
    assert "y1*y2" in res.certificate


def test_solver_template_admits_identity_endomorphism():
    b = example_contr("0")
    closed = ["x1", "x2", "y1", "y2", "z"]
    cons = {nm: nm for nm in closed}
    for nm in ["w1", "w2", "a"]:
        cons[nm] = MapTemplate("0", tuple([nm] + closed))
    res = dga_map_solve(b, b, cons, nonzero=[("a", "a")])
    assert res.status == "solution"
    da = b.d(res.assignment["a"])
    rhs = apply_chain_map(
        [res.assignment[g.name] for g in b.algebra.generators],
        b.d_generator("a"),
        b,
    )
    assert (da - rhs).is_zero()


def test_solver_nonzero_condition_can_refute():
    alg = Algebra([Generator("a", 1), Generator("b", 1), Generator("c", 1)])
    src = CDGA(alg, {"c": "a*b"})
    tgt = CDGA(Algebra([Generator("x", 1), Generator("y", 1), Generator("u", 1)]),
               {"u": "x*y"})
    cons = {
        "a": MapTemplate("0", ("x",)),
        "b": MapTemplate("0", ("x",)),
        "c": MapTemplate("0", ("u",)),
    }
    res = dga_map_solve(src, tgt, cons, nonzero=[("c", "u")])
    assert res.status == "unsatisfiable"


def test_solver_nonlinear_scaling_family():
    alg = Algebra([Generator("a", 1), Generator("b", 1), Generator("c", 1)])
    src = CDGA(alg, {"c": "a*b"})
    cons = {
        "a": MapTemplate("0", ("a",)),
        "b": MapTemplate("0", ("b",)),
    }
    res = dga_map_solve(src, src, cons, nonzero=[("a", "a"), ("b", "b")])
    assert res.status == "solution"
    img_c = res.assignment["c"]
    lhs = src.d(img_c)
    rhs = res.assignment["a"] * res.assignment["b"]
    assert (lhs - rhs).is_zero()


def test_solver_nonlinear_system_refuted_under_side_conditions():
    # d(c) = a*b forces q*q' = 0 at x*y, while q and q' must both be nonzero:
    # only the Rabinowitsch variable and a Groebner basis settle this
    src = CDGA(Algebra([("a", 1), ("b", 1), ("c", 1)]), {"c": "a*b"})
    tgt = CDGA(Algebra([("x", 1), ("y", 1), ("u", 1)]), {})
    cons = {
        "a": MapTemplate("0", ("x",)),
        "b": MapTemplate("0", ("y",)),
        "c": MapTemplate("0", ("u",)),
    }
    assert dga_map_solve(src, tgt, cons).status == "solution"
    res = dga_map_solve(src, tgt, cons, nonzero=[("a", "x"), ("b", "y")])
    assert res.status == "unsatisfiable"
    assert res.certificate == (
        "the polynomial system has no solution over any field extension "
        "compatible with the side conditions"
    )
    assert (res.unknowns, res.equations) == (3, 1)


def test_nonvanishing_point_steps_past_small_roots():
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    from nilform.formality import _nonvanishing_point

    R, x, y, z = ring("x y z", QQ)
    # vanishes at x = 0, 1 and at y = 0, 1, so the first good value of each is 2
    assert _nonvanishing_point(x * (x - 1) * y * (y - 1), 2) == [2, 2]
    rng = random.Random(29)
    for _ in range(30):
        p = R.one
        for _ in range(rng.randint(1, 4)):
            p *= rng.choice((x, y, z)) - rng.randint(0, 3)
        point = _nonvanishing_point(p, 3)
        assert len(point) == 3 and p(*point) != 0


def test_solver_lifts_through_dependent_exact_columns():
    # d(z1) = d(z2): the exact columns of degree 2 are linearly dependent
    tgt = CDGA(
        Algebra([(n, 1) for n in ("x", "y", "u", "z1", "z2", "z3")]),
        {"z1": "x*y", "z2": "x*y", "z3": "x*u"},
    )
    src = CDGA(Algebra([("a", 1), ("b", 1), ("w", 1)]), {"w": "a*b"})
    res = dga_map_solve(src, tgt, {"a": "x", "b": "u"})
    assert res.status == "solution"
    assert (res.assignment["w"] - tgt.algebra.gen("z3")).is_zero()


def test_solver_pairs_each_lift_with_its_monomial_in_the_unknowns():
    tgt = central_extension(["x1", "y1", "x2", "y2"], [("z1", "x1*y1"), ("z2", "x2*y2")])
    src = central_extension(["x1", "y1", "x2", "y2"], [("u", "x2*y2"), ("z", "x1*y1 + x2*y2")])
    # x2 -> s*x2, and the chain condition at u, d(2*z2) = s*x2*y2, forces s = 2
    cons = {"x1": "x1", "y1": "y1", "x2": MapTemplate("0", ("x2",)), "y2": "y2", "u": "2*z2"}
    res = dga_map_solve(src, tgt, cons)
    assert res.status == "solution"
    assert res.assignment["x2"] == tgt.algebra.parse("2*x2")
    # z is free: its transgression x1*y1 + s*x2*y2 has the monomials 1 and s in
    # the unknowns, which lift to z1 and z2, and every closed direction is zero
    assert res.assignment["z"] == tgt.algebra.parse("z1 + 2*z2")


def _tracked_class_matrix(h1_kernel, images_pel, target, n_src, R):
    """The induced map on H^1 by a tracked reduction of each monomial in the unknowns."""
    alg = target.algebra
    reps = target.cohomology(1).representatives
    ref = _WalkEchelon(alg.dim(1), track=True)
    for rep in reps:
        ref.add(dict_coords(alg, rep, 1))
    index = alg.basis_index(1)
    entries = []
    for vec in h1_kernel:
        by_mono = {}
        for i in range(n_src):
            for key, p in images_pel[i].items():
                for mono, a in p.terms():
                    w = by_mono.setdefault(mono, {})
                    j = index[key]
                    w[j] = w.get(j, 0) + vec.get(i, 0) * Fraction(a.numerator, a.denominator)
        row = [{} for _ in reps]
        for mono, w in by_mono.items():
            _, coeffs = ref.reduce(w)
            for t, x in enumerate(coeffs):
                if x:
                    row[t][mono] = R.domain(x.numerator, x.denominator)
        entries.append([R(terms) for terms in row])
    return entries


def _dependent_exact_columns():
    # d(a) and d(b) are dependent, so Z^1 holds 2a - b, with 2 at its pivot a
    return CDGA(Algebra([(n, 1) for n in ("x", "y", "a", "b")]), {"a": "x*y", "b": "2*x*y"})


@pytest.mark.parametrize(
    "build, constraints, templated",
    [
        (
            lambda: heisenberg(2),
            {"x1": MapTemplate("x1", ("z", "y1")), "y1": "y1", "x2": "x2", "y2": "y2"},
            "x1",
        ),
        (
            _dependent_exact_columns,
            {"x": MapTemplate("x", ("a",)), "y": "y", "a": MapTemplate("a", ("b", "y"))},
            "x",
        ),
    ],
    ids=["heisenberg2", "dependent-exact"],
)
def test_h1_class_matrix_is_the_tracked_reduction(monkeypatch, build, constraints, templated):
    c = build()
    calls = []
    read_at_pivots = formality._h1_class_matrix_polys

    def recorded(*args):
        calls.append((args, read_at_pivots(*args)))
        return calls[-1][1]

    monkeypatch.setattr(formality, "_h1_class_matrix_polys", recorded)
    assert dga_map_solve(c, c, constraints, require_h1_iso=True).status == "solution"
    [(args, got)] = calls
    _, images_pel, target, _, _ = args
    # the template's direction leaves the image of a closed generator non-closed
    image = images_pel[c.algebra.index_of(templated)]
    assert c.is_cocycle(c.algebra.gen(templated))
    assert any(not target.d(target.algebra.monomial(key)).is_zero() for key in image)
    assert got == _tracked_class_matrix(*args)


def test_solver_elimination_bound_guard():
    c = heisenberg(2)
    with pytest.raises(EliminationBoundError) as info:
        dga_map_solve(c, c, {})
    assert info.value.unknowns > 12


def test_solver_rejects_images_outside_degree_one():
    c = heisenberg(1)
    for spec in (MapTemplate("x1", ("x1*y1",)), "x1 + x1*y1", "x1*y1"):
        with pytest.raises(ValueError):
            dga_map_solve(c, c, {"x1": spec}, require_h1_iso=True)


def test_solver_rejects_unknown_constraint_names():
    c = heisenberg(1)
    with pytest.raises(ValueError):
        dga_map_solve(c, c, {"nope": "x1"})


def test_solver_h1_dimension_mismatch_is_unsatisfiable():
    res = dga_map_solve(
        free_abelian(["e1", "e2"]),
        free_abelian(["f1", "f2", "f3"]),
        {"e1": "f1", "e2": "f2"},
        require_h1_iso=True,
    )
    assert res.status == "unsatisfiable"
    assert "dimensions differ" in res.certificate


def test_solver_h1_iso_condition_excludes_collapse():
    c = free_abelian(["e1", "e2"])
    cons = {
        "e1": MapTemplate("0", ("e1",)),
        "e2": MapTemplate("e1", ()),
    }
    res = dga_map_solve(c, c, cons, require_h1_iso=True)
    assert res.status == "unsatisfiable"


# -- the aggregate report -------------------------------------------------


def test_report_abelian_everything_formal():
    rep = formality_report(free_abelian(["e1", "e2", "e3"]), 4)
    assert rep.overall == OVERALL_FORMAL
    assert rep.verdicts() == [FORMAL] * 5
    assert rep.evidence[0].rule == "rationally-abelian"


def test_report_heisenberg_thresholds():
    for n in (1, 2, 3):
        rep = formality_report(heisenberg(n), 3)
        assert rep.overall == OVERALL_NOT_FORMAL
        for k in range(4):
            want = FORMAL if k <= n - 1 else NOT_FORMAL
            assert rep.verdict(k) == want


def test_report_initial_example_not_one_formal():
    rep = formality_report(example_initial(), 2)
    assert rep.verdict(0) == FORMAL
    assert rep.verdict(1) == NOT_FORMAL
    assert rep.verdict(2) == NOT_FORMAL


def test_report_twisted_contractible_pair_disagrees():
    rep_b = formality_report(example_contr("0"), 1)
    rep_m = formality_report(example_contr("y1*y2"), 1)
    assert rep_b.verdict(1) == FORMAL
    assert rep_m.verdict(1) == NOT_FORMAL
    assert any(e.rule == "morphism-solver" for e in rep_m.evidence)


def test_report_bound_exceeded_flag():
    rep = formality_report(example_contr("y1*y2"), 1)
    assert rep.bound_exceeded is False
    # the twisted solve is linear, so the bound never trips on this input


def test_report_truncated_tower_sets_bound_flag(monkeypatch):
    assert FormalityReport(1).bound_exceeded is False
    monkeypatch.setattr(formality, "TOWER_CAP", 1)
    rep = formality_report(example_contr("y1*y2"), 2)
    monkeypatch.undo()
    assert rep.verdict(1) == INCONCLUSIVE
    assert rep.bound_exceeded is True
    (ev,) = [e for e in rep.evidence if e.rule == "morphism-solver"]
    assert ev.kind == "info"
    assert "truncated at stage cap 1" in ev.detail
    assert formality_report(example_contr("y1*y2"), 2).bound_exceeded is False


def _formality_mix_models(seeds=(3, 11)):
    """The formality-mix models of the given seeds (176 each), from the benchmark's generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_formality_mix_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    # 38 example_contr forms and 128 towers, as the workload draws them
    return [
        inputs.build_model(s)
        for seed in seeds
        for s in inputs.formality_specs(random.Random(seed), 38, 128)
    ]


TOP_CLASS_MODELS = [
    *(pytest.param(lambda n=n: heisenberg(n), id=f"heisenberg({n})") for n in (1, 2, 3, 4)),
    *(
        pytest.param(lambda m=m, n=n: heisenberg_type(m, n), id=f"heisenberg_type({m},{n})")
        for m, n in ((1, 3), (2, 5), (3, 7))
    ),
    pytest.param(example_initial, id="example_initial"),
    *(
        pytest.param(lambda p=p: example_contr(p), id=f"contr[{p}]")
        for p in ("0", "y1*y2", "x1*y2", "x1*x2 - 2*y1*z")
    ),
    pytest.param(lambda: free_abelian(["e1", "e2", "e3"]), id="free_abelian(3)"),
    pytest.param(lambda: tensor(heisenberg(1), heisenberg(1)), id="h1xh1"),
    pytest.param(lambda: tensor(heisenberg(1), example_initial()), id="h1xinitial"),
    pytest.param(lambda: tensor(heisenberg(2), example_contr("y1*y2")), id="h2xcontr"),
    pytest.param(lambda: tensor(free_abelian(["t"]), heisenberg_type(1, 3)), id="txht"),
]


def _assert_top_class_is_volume(c):
    top = c.algebra.top_degree()
    assert c.differential_matrix(top - 1).is_zero()
    assert c.betti(top) == 1


@pytest.mark.parametrize("build", TOP_CLASS_MODELS)
def test_top_cohomology_is_the_volume_class(build):
    # why formality_report builds no top-degree ring unless k+2 > top
    _assert_top_class_is_volume(build())


def test_top_cohomology_is_the_volume_class_on_the_formality_mix():
    models = _formality_mix_models()
    assert len(models) == 352
    for c in models:
        _assert_top_class_is_volume(c)


def test_report_builds_no_cohomology_above_what_its_rules_read():
    c = example_contr("y1*y2")
    rep = formality_report(c, 3)
    assert rep.overall == OVERALL_NOT_FORMAL and rep.best_formal is not None
    assert max(c._cohomology_cache) == 4 < c.algebra.top_degree()


@pytest.mark.parametrize(
    "p, expected",
    [("0", [FORMAL, FORMAL, NOT_FORMAL]), ("y1*y2", [FORMAL, NOT_FORMAL, NOT_FORMAL])],
)
def test_report_with_dependent_differentials_matches_contr(p, expected):
    # example_contr(p) tensored with one closed generator t = v - w1
    form = "x1*w1 + x2*w2" + ("" if p == "0" else " + " + p)
    c = central_extension(
        ["x1", "x2", "y1", "y2", "z"],
        [
            ("w1", "x1*y1 + x2*z"),
            ("v", "x1*y1 + x2*z"),
            ("w2", "x1*z + x2*y2"),
            ("a", form),
        ],
    )
    rep = formality_report(c, 2)
    assert rep.verdicts() == expected
    assert rep.verdicts() == formality_report(example_contr(p), 2).verdicts()


def test_report_rules_are_known():
    for c in (heisenberg(1), example_contr("y1*y2"), free_abelian(["e1"])):
        rep = formality_report(c, 1)
        for ev in rep.evidence:
            assert ev.rule in RULES


def test_report_evidence_stays_within_its_table():
    # the degree-1 resonance rule runs only when degree 1 is in the table
    c = tensor(heisenberg(1), example_contr("0"))
    for k_max in range(4):
        rep = formality_report(c, k_max)
        assert all(ev.k <= k_max for ev in rep.evidence)


def test_random_twostep_extensions_full_formality(seed=11):
    rng = random.Random(seed)
    for trial in range(25):
        n = rng.randint(2, 4)
        base = [f"e{i}" for i in range(1, n + 1)]
        pairs = [
            f"e{i}*e{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)
        ]
        forms = []
        for t in range(rng.randint(0, 2)):
            terms = [p for p in pairs if rng.random() < 0.5]
            forms.append((f"c{t}", "+".join(terms) if terms else "0"))
        c = central_extension(base, forms)
        all_zero = all(v.is_zero() for v in c.differential().values())
        want = OVERALL_FORMAL if all_zero else OVERALL_NOT_FORMAL
        assert full_formality(c) == want
        assert is_twostep(c)
        k = rng.randint(0, 2)
        d = decide_twostep(c, k)
        if d.verdict == FORMAL:
            assert obstruction_generation(c, k) is None


def test_random_seeded_reports_are_reproducible(seed=5):
    c = example_contr("y1*y2")
    rep1 = formality_report(c, 1, seed=seed)
    rep2 = formality_report(c, 1, seed=seed)
    assert rep1.verdicts() == rep2.verdicts()
    assert rep1.evidence == rep2.evidence


def _assert_certified_degrees_obey_the_theorem(c, k_max):
    """k-formal implies H^<=k+1 generated in degree 1 and trivial resonance up to degree k.

    Returns the largest certified k, or None.
    """
    certified = [k for k, v in enumerate(formality_report(c, k_max).verdicts()) if v == FORMAL]
    if not certified:
        return None
    best, top = max(certified), c.algebra.top_degree()
    r = from_cdga(c, max(2, min(best + 1, top)))
    for k in certified:
        assert generated_in_degree_one_upto(r, min(k + 1, top)).generated
    if best >= 1:
        verdict = decide_r11_trivial(r)
        assert verdict.witness is None and not verdict.nontrivial_certified
        # a third of the default search, which would double the test's time
        for i in range(2, best + 1):
            assert find_resonance_point(r, i, budget=20) is None
    return best


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certified_verdicts_obey_the_theorem_on_heisenberg(n):
    # the paper's threshold: heisenberg(n) is (n-1)-formal
    assert _assert_certified_degrees_obey_the_theorem(heisenberg(n), n + 1) == n - 1


def test_certified_verdicts_obey_the_theorem_on_the_formality_mix():
    models = _formality_mix_models(seeds=(3,))
    best = [_assert_certified_degrees_obey_the_theorem(c, 3) for c in models]
    # the degrees above 0 are where resonance is checked at all
    assert sum(1 for k in best if k is not None and k >= 1) == 18
