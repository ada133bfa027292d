"""Tests for partial formality verdicts, certificates, and the map solver."""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

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
    extend_minimal_model,
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
from nilform.ring import CutoffError, from_cdga
from test_ring import REPRESENTATIVE_MODELS


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
    rep.mark_formal_upto(1, Evidence("generation", 1, "formal", "a"))
    rep.mark_not_formal_from(3, Evidence("generation", 3, "not_formal", "b"))
    assert rep.verdicts() == [FORMAL, FORMAL, INCONCLUSIVE, NOT_FORMAL, NOT_FORMAL]
    assert rep.best_formal == 1
    assert rep.least_not_formal == 3


def test_report_conflict_raises():
    rep = FormalityReport(2)
    rep.mark_formal_upto(2, Evidence("generation", 2, "formal", "a"))
    with pytest.raises(RuntimeError):
        rep.mark_not_formal_from(1, Evidence("generation", 1, "not_formal", "b"))


def test_report_verdict_range_checked():
    rep = FormalityReport(1)
    with pytest.raises(ValueError):
        rep.verdict(2)
    with pytest.raises(ValueError):
        FormalityReport(-1)


def test_sorted_evidence_is_deterministic():
    rep = FormalityReport(1)
    rep.add_info(Evidence("resonance", 1, "info", "b"))
    rep.add_info(Evidence("generation", 0, "info", "a"))
    rules = [e.rule for e in rep.sorted_evidence()]
    assert rules == ["generation", "resonance"]


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
    assert len(dec.kernel) == 4
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
    with pytest.raises(ValueError):
        validate_decomposition(c, Decomposition(good.kernel, ()))
    with pytest.raises(ValueError):
        validate_decomposition(c, Decomposition(good.kernel[:1], good.complement))


def test_abelian_decomposition_has_empty_complement():
    c = free_abelian(["e1", "e2"])
    dec = default_decomposition(c)
    assert dec.complement == ()
    assert len(dec.kernel) == 2


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
    assert certify_prop_art(heisenberg(1), 0) is not None
    assert certify_prop_art(heisenberg(1), 1) is None


def test_prop_certificate_abelian_all_degrees():
    c = free_abelian(["e1", "e2"])
    for k in (0, 1, 3, 5):
        assert certify_prop_art(c, k) is not None


def test_prop_certificate_matches_twostep_decision():
    for n in (1, 2, 3):
        c = heisenberg(n)
        for k in range(0, n + 1):
            cert = certify_prop_art(c, k)
            exact = decide_twostep(c, k).verdict
            if cert is not None:
                assert exact == FORMAL


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
    image = Echelon(alg.dim(q))
    for col in c.differential_matrix(q - 1).cols:
        image.add(col)
    for rel in both.kernel():
        if not image.contains(both.apply({j: x for j, x in rel.items() if j < len(ideal)})):
            return False
    return True


def _prop_art_verdicts_match_the_oracle(c):
    """certify_prop_art(c, k) for k <= 3 against the oracle; the verdicts."""
    dec = default_decomposition(c)
    exact = [_ideal_cocycles_are_exact(c, dec, q) for q in range(1, 5)]
    verdicts = [certify_prop_art(c, k) is not None for k in range(4)]
    assert verdicts == [all(exact[: k + 1]) for k in range(4)]
    return verdicts


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
    rep.mark_formal_upto(1, Evidence("prop-art-certificate", 1, "formal", "seed"))
    ev = infer_prop_k2(rep, from_cdga(c, 2), 1)
    assert ev is not None and ev.rule == "prop-k+2"
    assert rep.overall == OVERALL_FORMAL
    assert rep.verdicts() == [FORMAL] * 4


def test_prop_k2_upgrade_needs_vanishing_top():
    c = heisenberg(2)
    rep = FormalityReport(2)
    rep.mark_formal_upto(1, Evidence("prop-art-certificate", 1, "formal", "seed"))
    assert infer_prop_k2(rep, from_cdga(c, 5), 1) is None
    assert rep.overall == INCONCLUSIVE


def test_prop_k2_upgrade_needs_enough_cutoff():
    c = heisenberg(2)
    rep = FormalityReport(1)
    rep.mark_formal_upto(1, Evidence("prop-art-certificate", 1, "formal", "seed"))
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


def test_apply_chain_map_into_ring():
    c = heisenberg(2)
    r = from_cdga(c, 2)
    images = [r.h_class(1, i) for i in range(4)] + [r.unit().scale(0)]
    v = c.algebra.parse("x1*y2")
    out = apply_chain_map(images, v, r)
    assert not out.is_zero()
    assert out.degree == 2


def test_extend_minimal_model_covers_cokernel():
    c = heisenberg(2)
    r = from_cdga(c, 2)
    empty = CDGA(Algebra([]))
    ext = extend_minimal_model(empty, {}, r, 0, stage_cap=4)
    assert [len(w) for w in ext.waves] == [4, 1]
    assert not ext.truncated
    names = [g.name for g in ext.cdga.algebra.generators]
    assert len(names) == 5
    # the wave-1 generator transgresses the symplectic relation
    wave1 = ext.waves[1][0]
    t = ext.cdga.d_generator(wave1)
    assert not t.is_zero() and t.degree == 2


@pytest.mark.parametrize(
    "build, waves",
    [
        pytest.param(lambda: heisenberg(1), [2, 1], id="heisenberg(1)"),
        pytest.param(lambda: heisenberg(2), [4, 1], id="heisenberg(2)"),
        pytest.param(lambda: example_contr("0"), [5, 2, 1], id="contr[0]"),
    ],
)
def test_extend_minimal_model_into_a_cdga(build, waves):
    target = build()
    ext = extend_minimal_model(CDGA(Algebra([])), {}, target, 0)
    assert [len(w) for w in ext.waves] == waves
    assert not ext.truncated
    model = ext.cdga
    images = [ext.images[g.name] for g in model.algebra.generators]
    for g in model.algebra.generators:
        # a chain map: f(d g) = d(f g)
        image_of_d = apply_chain_map(images, model.d_generator(g.name), target)
        assert (image_of_d - target.d(ext.images[g.name])).is_zero()
    assert model.betti_numbers(2) == target.betti_numbers(2)


def test_extend_minimal_model_checks_preconditions():
    c = heisenberg(2)
    r = from_cdga(c, 2)
    stage = CDGA(Algebra([Generator("a", 1)]))
    # image 0 is not injective on degree-one cohomology
    with pytest.raises(ValueError):
        extend_minimal_model(stage, {"a": r.unit().scale(0)}, r, 1)


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


def test_solver_model_to_ring_sends_relation_to_zero():
    c = heisenberg(2)
    r = from_cdga(c, 3)
    labels = r.labels(1)
    cons = {nm: r.h_class(1, labels.index(nm)) for nm in ["x1", "y1", "x2", "y2"]}
    res = dga_map_solve(c, r, cons)
    assert res.status == "solution"
    assert res.assignment["z"].is_zero()


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


def test_solver_elimination_bound_guard():
    c = heisenberg(2)
    with pytest.raises(EliminationBoundError) as info:
        dga_map_solve(c, c, {}, elimination_bound=12)
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
    rep = formality_report(example_contr("y1*y2"), 1, elimination_bound=12)
    assert rep.bound_exceeded is False
    # the twisted solve is linear, so the bound never trips on this input


def test_report_truncated_tower_sets_bound_flag():
    assert FormalityReport(1).bound_exceeded is False
    rep = formality_report(example_contr("y1*y2"), 2, tower_cap=1)
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
    assert [e.detail for e in rep1.sorted_evidence()] == [
        e.detail for e in rep2.sorted_evidence()
    ]
