"""Tests for partial formality verdicts, certificates, and the map solver."""

from __future__ import annotations

import importlib.util
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilform import cdga, cli, formality, resonance, ring
from nilform.catalog import (
    central_extension,
    example_contr,
    example_initial,
    free_abelian,
    heisenberg,
    heisenberg_type,
)
from nilform.cdga import CDGA, coordinate_model, dict_coords, hirsch_extend, tensor
from nilform.formality import (
    FORMAL,
    INCONCLUSIVE,
    NOT_FORMAL,
    OVERALL_FORMAL,
    OVERALL_NOT_FORMAL,
    RULES,
    BigradedTower,
    EliminationBoundError,
    Evidence,
    FormalityReport,
    apply_chain_map,
    bigraded_tower,
    certify_prop_art,
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
from nilform.gca import Algebra, AlgebraError, Generator, Multivector
from nilform.linalg import Echelon, SparseMatrix
from nilform.resonance import (
    _zero_locus_is_origin,
    decide_r11_trivial,
    find_resonance_point,
    in_resonance,
    r11_quadric_system,
)
from nilform.ring import (
    characteristic_subspace,
    class_symbol_algebra,
    from_cdga,
    generated_in_degree_one_upto,
)
from test_ring import NON_COORDINATE_CLOSED, REPRESENTATIVE_MODELS
from tracked_reference import (
    ReferenceReport,
    full_scan,
    reference_bigraded_tower,
    reference_characteristic_subspace,
)

DATA = Path(__file__).resolve().parent / "data"


# -- report bookkeeping ---------------------------------------------------


def test_evidence_rejects_unknown_rule():
    with pytest.raises(ValueError):
        Evidence("no-such-rule", 0, "formal", "x")
    with pytest.raises(ValueError):
        Evidence("generation", 0, "maybe", "x")


def test_evidence_data_defaults_to_none():
    ev = Evidence("generation", 1, "info", "x")
    assert ev.data is None
    assert Evidence("generation", 1, "info", "x", {"q": 2}).data == {"q": 2}


def test_report_marking_and_extremes():
    rep = FormalityReport(4)
    assert rep.verdicts() == [INCONCLUSIVE] * 5
    assert rep.best_formal is None and rep.least_not_formal is None
    rep.add(Evidence("generation", 1, "formal", "a"))
    rep.add(Evidence("generation", 3, "not_formal", "b"))
    assert rep.verdicts() == [FORMAL, FORMAL, INCONCLUSIVE, NOT_FORMAL, NOT_FORMAL]
    assert rep.best_formal == 1
    assert rep.least_not_formal == 3


def test_report_conflict_raises():
    rep = FormalityReport(2)
    rep.add(Evidence("generation", 2, "formal", "a"))
    with pytest.raises(RuntimeError):
        rep.add(Evidence("generation", 1, "not_formal", "b"))


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
    rep.add(first)
    rep.add(second)
    # evidence is kept in the order the rules add it
    assert rep.evidence == [first, second]


@given(st.data())
def test_report_verdicts_match_the_per_degree_marking(data):
    """Any evidence sequence gives the verdicts, extremes and evidence of
    ``ReferenceReport``'s per-degree list, and a conflict at the same item
    with the same message, after which neither report has kept the item."""
    k_max = data.draw(st.integers(0, 4))
    evidence = st.builds(
        Evidence,
        st.sampled_from(formality.RULES),
        st.integers(-2, k_max + 2),
        st.sampled_from(["formal", "not_formal", "info"]),
        st.just("x"),
    )
    rep, ref = FormalityReport(k_max), ReferenceReport(k_max)
    for ev in data.draw(st.lists(evidence, max_size=10)):
        try:
            ref.add(ev)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=re.escape(str(exc))):
                rep.add(ev)
            assert rep.evidence == ref.evidence
            break
        rep.add(ev)
        assert rep.verdicts() == ref.verdicts()
        assert (rep.best_formal, rep.least_not_formal) == (ref.best_formal, ref.least_not_formal)
        assert rep.evidence == ref.evidence


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


_MODEL_RULES = (
    full_formality,
    is_twostep,
    lambda c: obstruction_generation(c, 1),
    lambda c: obstruction_resonance(c, 1),
    lambda c: certify_prop_art(c, 1),
    lambda c: formality_report(c, 1),
)


@pytest.mark.parametrize(
    "generators, differential, message",
    [((("a", 1), ("b", 1)), {"b": "a*b"}, "nilpotent"), ((("a", 1), ("u", 2)), {}, "degree 1")],
)
def test_every_rule_rejects_a_non_model_every_time(generators, differential, message):
    c = CDGA(Algebra([Generator(*g) for g in generators]), differential)
    for rule in _MODEL_RULES + _MODEL_RULES:
        with pytest.raises(ValueError, match=message):
            rule(c)


def test_report_checks_its_model_once(monkeypatch):
    calls = []

    def is_minimal(self):
        calls.append(self)
        return all(len(m) >= 2 for v in self._d_gen.values() for m in v.terms)

    monkeypatch.setattr(CDGA, "is_minimal", property(is_minimal))
    c = example_contr("y1*y2")
    formality_report(c, 3)
    for rule in _MODEL_RULES:
        rule(c)
    assert calls == [c]


def test_full_formality_values():
    assert full_formality(free_abelian(["e1", "e2", "e3"])) == OVERALL_FORMAL
    for n in (1, 2, 3):
        assert full_formality(heisenberg(n)) == OVERALL_NOT_FORMAL


# -- decompositions -------------------------------------------------------


def test_default_decomposition_heisenberg():
    c = heisenberg(2)
    dec = default_decomposition(c)
    assert dec == ("z",)
    validate_decomposition(c, dec)


def test_decomposition_from_names_checks_membership():
    c = heisenberg(1)
    assert decomposition_from_names(c, ["z"]) == ("z",)
    with pytest.raises(ValueError):
        decomposition_from_names(c, ["x1"])


def test_decomposition_keeps_the_names_in_the_order_given():
    c = example_contr("y1*y2")
    assert default_decomposition(c) == ("w1", "w2", "a")
    assert decomposition_from_names(c, ["a", "w2", "w1"]) == ("a", "w2", "w1")


def test_a_complement_given_as_a_list_reads_as_the_tuple():
    # each call gets a fresh model, so no earlier validation of the tuple is cached
    names = ["a", "w2", "w1"]
    assert validate_decomposition(example_contr("y1*y2"), names) == tuple(names)
    assert certify_prop_art(example_contr("y1*y2"), 1, names) == certify_prop_art(
        example_contr("y1*y2"), 1, tuple(names)
    )
    listed = formality_report(example_contr("y1*y2"), 3, decomposition=names)
    tupled = formality_report(example_contr("y1*y2"), 3, decomposition=tuple(names))
    assert (listed.verdicts(), listed.evidence) == (tupled.verdicts(), tupled.evidence)


@pytest.mark.parametrize(
    "names, error, match",
    [
        (["a", "w2", "q"], AlgebraError, "q"),
        (["a", "a", "w1"], ValueError, "dependent"),
        (["a", "w2", "x1"], ValueError, "dependent"),
        (["a", "w2"], ValueError, "do not span"),
    ],
    ids=["unknown", "repeated", "closed", "short"],
)
def test_decomposition_rejections(names, error, match):
    c = example_contr("y1*y2")
    with pytest.raises(error, match=match):
        decomposition_from_names(c, names)
    with pytest.raises(error, match=match):
        validate_decomposition(c, tuple(names))
    with pytest.raises(error, match=match):
        certify_prop_art(c, 1, tuple(names))


def test_decomposition_wrong_sizes_rejected():
    c = heisenberg(1)
    good = default_decomposition(c)
    validate_decomposition(c, good)
    with pytest.raises(ValueError, match="parts do not span degree 1"):
        validate_decomposition(c, ())


def test_abelian_decomposition_has_empty_complement():
    c = free_abelian(["e1", "e2"])
    dec = default_decomposition(c)
    assert dec == ()
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


@pytest.mark.parametrize(
    "build, rule",
    [
        (lambda: heisenberg(3), lambda c: formality_report(c, 3)),
        (lambda: example_contr("y1*y2"), lambda c: obstruction_generation(c, 3)),
    ],
    ids=["two-step-decision", "obstruction_generation"],
)
def test_the_generation_rules_form_no_cohomology_basis(monkeypatch, build, rule):
    # the climb ranks cochain matrices: no class basis but H^1, whose
    # representatives are the basis of Z^1, and no ring, so no structure constant
    built = _count_rings(monkeypatch)
    c = build()
    rule(c)
    assert set(c._cohomology_cache) == {1}
    assert built == []


def _count_rings(monkeypatch):
    """The cutoff of each ring presentation built from now on, through any module's ``from_cdga``."""
    built = []
    for module in (formality, resonance, ring):
        real = module.from_cdga
        monkeypatch.setattr(module, "from_cdga", lambda c, m, real=real: built.append(m) or real(c, m))
    return built


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


def test_a_standalone_certificate_builds_no_class_basis_above_degree_one(monkeypatch):
    # b_q is read from two ranks; only the default complement reads H^1
    built = []
    real = cdga.CohomologyBasis.__init__
    monkeypatch.setattr(cdga.CohomologyBasis, "__init__", lambda b, c, q: built.append(q) or real(b, c, q))
    assert certify_prop_art(heisenberg(4), 3).k == 3
    assert built == [1]
    assert certify_prop_art(heisenberg(4), 3, ("z",)).k == 3
    assert built == [1]


def test_prop_certificate_refuses_nothing_for_heisenberg_one():
    assert certify_prop_art(heisenberg(1), 0).k == 0
    # degree 2 fails, so asking for k = 1 certifies only k = 0
    assert certify_prop_art(heisenberg(1), 1).k == 0


def test_prop_certificate_abelian_all_degrees():
    c = free_abelian(["e1", "e2"])
    for k in (0, 1, 3, 5):
        assert certify_prop_art(c, k).k == k


def test_an_empty_complement_is_reported_as_an_empty_list():
    # d = 0: every generator is closed, and no name is left to report
    assert certify_prop_art(free_abelian(["e1", "e2"]), 1).data == {"complement": []}


def test_prop_certificate_matches_twostep_decision():
    for n in (1, 2, 3):
        c = heisenberg(n)
        for k in range(0, n + 1):
            cert = certify_prop_art(c, k)
            assert cert.k <= k
            assert formality_report(c, cert.k).verdict(cert.k) == FORMAL


def _ideal_cocycles_are_exact(c, dec, q):
    """Oracle: every vector of I_q cap Z^q lies in the span of the d_(q-1) columns.

    I_q is spanned by the products of the complement's generators with the
    monomials of degree q-1, and I_q cap Z^q by the ideal parts of the
    relations between those products and the kernel() columns of d_q.
    """
    alg = c.algebra
    ideal = []
    for name in dec:
        nv = alg.gen(name)
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


def _prop_art_verdicts_match_the_oracle(c, dec=None):
    """certify_prop_art(c, k, dec) for k <= 3 against the oracle; whether each k is certified.

    Degree 1 passes for every valid complement, so there is always
    evidence: the certified degree is the largest j <= k whose degrees up to
    j+1 all pass the oracle.  The default decomposition is used when none is
    given.
    """
    if dec is None:
        dec = default_decomposition(c)
    exact = [_ideal_cocycles_are_exact(c, dec, q) for q in range(1, 5)]
    assert exact[0]
    got = [certify_prop_art(c, k, dec) for k in range(4)]
    assert all(ev.data == {"complement": list(dec)} for ev in got)
    passing = [j for j in range(4) if all(exact[: j + 1])]
    want = [max(j for j in passing if j <= k) for k in range(4)]
    assert [ev.k for ev in got] == want
    return [j == k for k, j in enumerate(want)]


# the certificate admits only degree-1 generators
PROP_ART_MODELS = [p for p in REPRESENTATIVE_MODELS if p.id != "even-generator"]


@pytest.mark.parametrize("build, top", PROP_ART_MODELS)
def test_prop_certificate_rank_criterion_matches_the_intersection(build, top):
    _prop_art_verdicts_match_the_oracle(build())


def _dz_equals_dw():
    """d(z) = d(w) = x*y: {z} and {w} are both complements of the closed part."""
    return central_extension(["x", "y"], [("z", "x*y"), ("w", "x*y")])


@pytest.mark.parametrize(
    "build, names",
    [
        *(
            pytest.param(lambda p=p: example_contr(p), ("a", "w2", "w1"), id=f"contr[{p}]")
            for p in ("0", "y1*y2", "x1*y2", "x1*x2 - 2*y1*z")
        ),
        pytest.param(_dz_equals_dw, ("z",), id="dz=dw=xy-z"),
        pytest.param(_dz_equals_dw, ("w",), id="dz=dw=xy-w"),
    ],
)
def test_prop_certificate_of_a_chosen_complement_matches_the_intersection(build, names):
    c = build()
    _prop_art_verdicts_match_the_oracle(c, decomposition_from_names(c, names))


@pytest.mark.parametrize("name", ["z", "w"])
def test_the_complement_ideal_carries_the_whole_image_of_d(name):
    # A^q = wedge^q Z^1 + I^q and d kills wedge^q Z^1, so rank d_q(I^q) =
    # rank d_q: the identity behind the certificate's Betti comparison, here
    # where Z^1 = <x, y, z - w> is spanned by no set of generators
    c = _dz_equals_dw()
    decomposition_from_names(c, (name,))
    alg = c.algebra
    gen = alg.index_of(name)
    for q in range(1, alg.top_degree() + 1):
        d = c.differential_matrix(q)
        ideal = [j for j, mono in enumerate(alg.basis(q)) if gen in mono]
        assert Echelon(d.cols[j] for j in ideal).rank == d.rank()


def _assert_prop_art_implies_generation(c, k):
    """The paper's theorem across rules: a prop-art certificate at j means
    H^q is generated in degree 1 for every q <= j+1.  Returns j."""
    j = certify_prop_art(c, k).k
    assert generated_in_degree_one_upto(c, j + 1).generated
    return j


@pytest.mark.parametrize("build, top", PROP_ART_MODELS)
def test_a_prop_art_certificate_implies_generation(build, top):
    # a certificate asked for a smaller k certifies min(k, j)
    _assert_prop_art_implies_generation(build(), 4)


def test_a_prop_art_certificate_implies_generation_on_the_formality_mix():
    certified = [_assert_prop_art_implies_generation(c, 3) for c in _formality_mix_models()]
    # certificates above degree 0 occur, so the check reaches H^2 and up
    assert any(j >= 1 for j in certified)


def _splitting_matches_the_certificate(c):
    """Where H^q is generated, the default certificate passes at q exactly
    when B'^q, the image of d'_(q-1) in the coordinate model, splits over
    span R^q + span I^q: the ranks of its two row cuts add up to its rank.

    Passing is read off the intersection oracle, on the model itself.
    Returns whether B'^q split, per degree checked.
    """
    pivots, model = coordinate_model(c)
    dec = default_decomposition(c)
    out = []
    for q in range(2, min(4, c.algebra.top_degree()) + 1):
        if not generated_in_degree_one_upto(c, q).generated:
            break
        d = model.differential_matrix(q - 1)
        pure = {j for j, mono in enumerate(c.algebra.basis(q)) if pivots.issuperset(mono)}
        ideal = set(range(d.nrows)) - pure
        splits = d.cut_rank(pure) + d.cut_rank(ideal) == d.rank()
        assert splits == _ideal_cocycles_are_exact(c, dec, q)
        out.append(splits)
    return out


def test_the_certificate_passes_where_the_coboundaries_split():
    models = [p.values[0]() for p in PROP_ART_MODELS + NON_COORDINATE_CLOSED]
    models += [heisenberg(n) for n in (1, 2, 3, 4)] + _formality_mix_models()
    splits = [s for c in models for s in _splitting_matches_the_certificate(c)]
    # both outcomes occur, so neither direction of the identity goes untested
    assert True in splits and False in splits


def test_a_warm_certificate_copies_no_echelon_and_builds_no_basis(monkeypatch):
    # each degree compares one rank with b_q, which the report's ring holds,
    # and no shared coboundary echelon is built or extended
    c = example_contr("0")
    formality_report(c, 3)
    shared = {q: span.rank for q, span in c._coboundaries.items()}
    made = []
    real_basis = cdga.CohomologyBasis.__init__
    monkeypatch.setattr(
        cdga.CohomologyBasis,
        "__init__",
        lambda self, *args: made.append("basis") or real_basis(self, *args),
    )
    ev = certify_prop_art(c, 1)
    monkeypatch.undo()
    assert made == [] and {q: span.rank for q, span in c._coboundaries.items()} == shared
    # the one catalog model whose certificate passes degree 2 on its own
    assert ev.k == 1


def test_generation_to_degree_one_adds_no_row(monkeypatch):
    # H^1 = Z^1 = P_1 holds by construction, so the climb does no elimination
    c = example_contr("0")
    formality_report(c, 3)
    added = []
    real_add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda self, vec: added.append(vec) or real_add(self, vec))
    ev = obstruction_generation(c, 0)
    verdict = generated_in_degree_one_upto(c, 1)
    monkeypatch.undo()
    assert ev is None and verdict.generated and added == []


def test_prop_certificate_rank_criterion_matches_the_intersection_on_the_formality_mix():
    models = _formality_mix_models(seeds=(3,))
    assert len(models) == 176
    verdicts = [v for c in models for v in _prop_art_verdicts_match_the_oracle(c)]
    # both outcomes occur, so neither direction of the criterion goes untested
    assert any(verdicts) and not all(verdicts)


def _dependent_closed():
    """d(w1) = d(v) = d(v2): the kernel of d_1 and the H^1 representatives are two bases of Z^1."""
    return cli._cdga_from_document(json.loads((DATA / "dependent_closed.json").read_text()))


def test_the_default_complement_is_valid_by_construction():
    # it is never validated at run time, so the oracle checks it here: it
    # leaves out the least index of each H^1 representative, and those are
    # the pivots of every echelon basis of Z^1, here the kernel of d_1
    models = [p.values[0]() for p in PROP_ART_MODELS] + [_dependent_closed(), _dz_equals_dw()]
    for c in models + _formality_mix_models():
        dec = default_decomposition(c)
        validate_decomposition(c, dec)
        least = {min(z.terms)[0] for z in c.cohomology(1).representatives}
        assert least == set(Echelon(c.differential_matrix(1).kernel()).pivots)
        names = [g.name for g in c.algebra.generators]
        assert dec == tuple(n for j, n in enumerate(names) if j not in least)


def test_the_dependent_model_has_two_bases_of_z1():
    c = _dependent_closed()
    # w1, v, v2 are generators 5, 6, 7: the kernel has w1 - v and w1 - v2
    assert c.differential_matrix(1).kernel()[-2:] == [{5: 1, 6: -1}, {5: 1, 7: -1}]
    assert [str(z) for z in c.cohomology(1).representatives][-2:] == ["w1 - v2", "v - v2"]
    assert default_decomposition(c) == ("v2", "w2", "a")


@pytest.mark.parametrize(
    "build",
    [
        lambda: example_contr("y1*y2"),
        lambda: cli._cdga_from_document(json.loads((DATA / "three_step_tower.json").read_text())),
    ],
    ids=["contr-y1y2", "three_step_tower"],
)
def test_the_degree_one_rules_do_no_algebra_products(monkeypatch, build):
    # the complement's ideal, its validation, the 2-step test and the
    # vanishing differential are all read off the cochain matrices
    c = build()

    def refuse(*args):
        raise AssertionError("an algebra product or coordinate dict was formed")

    monkeypatch.setattr(Multivector, "__mul__", refuse)
    monkeypatch.setattr(cdga, "dict_coords", refuse)
    ev = certify_prop_art(c, 3)
    validate_decomposition(c, default_decomposition(c))
    twostep = is_twostep(c)
    overall = full_formality(c)
    monkeypatch.undo()
    fresh = build()
    assert ev == certify_prop_art(fresh, 3)
    assert (twostep, overall) == (False, OVERALL_NOT_FORMAL)


def test_report_checks_the_prop_art_degrees_in_one_pass(monkeypatch):
    calls = []
    for name in ("certify_prop_art", "validate_decomposition"):
        real = getattr(formality, name)
        monkeypatch.setattr(
            formality, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    rep = formality_report(example_contr("y1*y2"), 3)
    # one certificate call; the default complement is valid by construction
    assert calls == ["certify_prop_art"]
    # a complement passed in is validated once, by the certificate
    calls.clear()
    chosen = formality_report(example_contr("y1*y2"), 3, decomposition=("a", "w2", "w1"))
    assert calls == ["certify_prop_art", "validate_decomposition"]
    monkeypatch.undo()
    assert chosen.verdicts() == rep.verdicts()
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


def _twostep_report(c, k_max):
    """The report on a 2-step model, every verdict from the two-step decision."""
    rep = formality_report(c, k_max)
    assert {ev.rule for ev in rep.evidence if ev.kind != "info"} == {"two-step-decision"}
    return rep


def test_twostep_decision_heisenberg_thresholds():
    for n in (1, 2, 3):
        c = heisenberg(n)
        for k in range(0, n + 2):
            want = FORMAL if k <= n - 1 else NOT_FORMAL
            assert _twostep_report(c, k).verdict(k) == want


def test_twostep_decision_heisenberg_type():
    for (m, n) in ((1, 3), (2, 5), (2, 6)):
        c = heisenberg_type(m, n)
        assert _twostep_report(c, m - 1).verdict(m - 1) == FORMAL
        assert _twostep_report(c, m).verdict(m) == NOT_FORMAL


# -- prop-k+2 upgrade -----------------------------------------------------


def test_prop_k2_upgrade_fires_for_small_top_degree():
    c = free_abelian(["e1", "e2"])
    rep = FormalityReport(3)
    rep.add(Evidence("prop-art-certificate", 1, "formal", "seed"))
    ev = infer_prop_k2(rep, c, 1)
    assert ev is not None and ev.rule == "prop-k+2"
    assert rep.overall == OVERALL_FORMAL
    assert rep.verdicts() == [FORMAL] * 4


def test_prop_k2_upgrade_needs_vanishing_top():
    c = heisenberg(2)
    rep = FormalityReport(2)
    rep.add(Evidence("prop-art-certificate", 1, "formal", "seed"))
    assert infer_prop_k2(rep, c, 1) is None
    assert rep.overall == INCONCLUSIVE


def test_prop_k2_requires_formal_verdict():
    c = free_abelian(["e1"])
    rep = FormalityReport(2)
    assert infer_prop_k2(rep, c, 1) is None


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
    tower = bigraded_tower(c, stage_cap=4)
    assert tower.stage_dims == [4, 1]
    assert tower.stabilized
    names = [g.name for g in tower.cdga.algebra.generators]
    assert names == [g.name for g in class_symbol_algebra(c).generators] + ["w1_0"]
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
    c = build()
    r = from_cdga(c, 2)
    tower = bigraded_tower(c, stage_cap=3)
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
    tower = bigraded_tower(CDGA(alg, {"z": "w1_0*b"}), stage_cap=2)
    assert tower.stages == [["w1_0", "b"], ["w1_0_"], ["w2_0", "w2_1"]]
    assert not tower.stabilized


def _model_builders():
    """Builders of the catalog's models (TOP_CLASS_MODELS), NON_COORDINATE_CLOSED
    and the ``tests/data`` ones."""
    builders = [p.values[0] for p in TOP_CLASS_MODELS + NON_COORDINATE_CLOSED]
    return builders + [
        lambda f=f: cli._cdga_from_document(json.loads(f.read_text()))
        for f in sorted(DATA.glob("*.json"))
        if f.name != "golden_cli.json"
    ]


def _oracle_model_pairs():
    """Two fresh builds of each model: the `_model_builders` ones and the
    seed-3 contr forms and towers."""
    pairs = [(build(), build()) for build in _model_builders()]
    for kind in ("contr", "tower"):
        pairs += zip(*(_formality_mix_models(seeds=(3,), kind=kind) for _ in range(2)))
    assert len(pairs) == 17 + 6 + 5 + 40 + 128
    return pairs


def test_the_characteristic_subspace_is_the_kernel_of_the_ring_products():
    # the wedge table's kernel, entry for entry, is the ring's
    dims = set()
    for c, other in _oracle_model_pairs():
        got = characteristic_subspace(c)
        want = reference_characteristic_subspace(from_cdga(other, 2))
        assert got.basis == want
        assert [list(v.terms.items()) for v in got.basis] == [list(v.terms.items()) for v in want]
        assert got is characteristic_subspace(c)
        dims.add(got.dim)
    assert {0, 1, 2} <= dims


def test_the_tower_is_the_ring_wave_loop():
    # same stages, names and transgressions, with wave 1 read off the
    # subspace; three waves, as the report's cap of six takes 20 times longer
    truncated = 0
    for c, other in _oracle_model_pairs():
        tower = bigraded_tower(c, stage_cap=3)
        cur, stages, stabilized = reference_bigraded_tower(from_cdga(other, 2), 3)
        assert (tower.stages, tower.stabilized) == (stages, stabilized)
        got, want = tower.cdga.differential(), cur.differential()
        assert got == want
        assert [list(v.terms.items()) for v in got.values()] == [list(v.terms.items()) for v in want.values()]
        truncated += not stabilized
    assert truncated > 0


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
    tower = bigraded_tower(heisenberg(1), stage_cap=3)
    assert tower.stage_dims[:3] == [2, 1, 2]
    cum = 0
    seen = []
    for d in tower.stage_dims:
        cum += d
        seen.append(cum)
    assert all(a < b for a, b in zip(seen, seen[1:]))
    assert not tower.stabilized


def test_bigraded_tower_second_heisenberg_stabilizes():
    tower = bigraded_tower(heisenberg(2), stage_cap=5)
    assert tower.stabilized
    assert tower.stage_dims == [4, 1]
    assert sum(tower.stage_dims) == 5
    assert tower.stages[0] == ["x1", "y1", "x2", "y2"]


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
        # gives the particular solution, the only column the solver reads;
        # the free unknowns' null vectors are the directions it leaves at zero
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


def test_solver_reads_the_coefficients_of_the_source_differential():
    # the report's towers have unit coefficients only; here d(z) = 2xy
    src = central_extension(["x", "y"], [("z", "2*x*y")])
    tgt = heisenberg(1)
    res = dga_map_solve(src, tgt, {"x": "x1", "y": "y1", "z": "z"})
    assert res.certificate == "inconsistent equation: chain condition at 'z', coordinate x1*y1"
    res = dga_map_solve(src, tgt, {"x": "x1", "y": "-y1"})
    assert res.status == "solution"
    assert res.assignment["z"] == tgt.algebra.parse("-2*z")


def test_solver_lifts_free_generator_over_cdga():
    c = heisenberg(2)
    cons = {nm: nm for nm in ["x1", "y1", "x2", "y2"]}
    res = dga_map_solve(c, c, cons)
    assert res.status == "solution"
    img = res.assignment["z"]
    assert (c.d(img) - c.d(c.algebra.gen("z"))).is_zero()


def test_solver_tower_onto_formal_model():
    c = heisenberg(2)
    tower = bigraded_tower(c)
    coh1 = c.cohomology(1)
    cons = {nm: coh1.representatives[j] for j, nm in enumerate(tower.stages[0])}
    res = dga_map_solve(tower.cdga, c, cons)
    assert res.status == "solution"
    assert res.unknowns > 0


def test_solver_tower_refutes_twisted_model():
    c = example_contr("y1*y2")
    tower = bigraded_tower(c, stage_cap=6)
    assert tower.stabilized
    assert tower.stage_dims == [5, 2, 1]
    coh1 = c.cohomology(1)
    cons = {nm: coh1.representatives[j] for j, nm in enumerate(tower.stages[0])}
    res = dga_map_solve(tower.cdga, c, cons)
    assert res.status == "unsatisfiable"
    assert "y1*y2" in res.certificate


def _quadric_pair(extra: dict[str, str]):
    # a and b are free: a -> p*x + q*y and b -> r*x + s*y, and d(c) = a*b
    # makes the fixed image v of c demand d(v) = x*y = (p*s - q*r) x*y
    src = CDGA(Algebra([(n, 1) for n in ("a", "b", "c", *extra)]), {"c": "a*b", **extra})
    tgt = CDGA(Algebra([("x", 1), ("y", 1), ("v", 1)]), {"v": "x*y"})
    return src, tgt


def test_solver_nonlinear_quadric_found_by_the_grid():
    src, tgt = _quadric_pair({})
    res = dga_map_solve(src, tgt, {"c": "v"})
    assert res.status == "solution"
    assert (res.unknowns, res.equations) == (4, 1)
    images = [res.assignment[g.name] for g in src.algebra.generators]
    for g in src.algebra.generators:
        rhs = apply_chain_map(images, src.d_generator(g.name), tgt)
        assert (tgt.d(res.assignment[g.name]) - rhs).is_zero()


def test_solver_nonlinear_system_refuted_by_groebner():
    # d(f) = a*b with f -> 0 adds p*s - q*r = 0 to p*s - q*r = 1
    src, tgt = _quadric_pair({"f": "a*b"})
    res = dga_map_solve(src, tgt, {"c": "v", "f": "0"})
    assert res.status == "unsatisfiable"
    assert res.certificate == "the polynomial system has no solution over any field extension"
    assert (res.unknowns, res.equations) == (4, 2)


def test_solver_nonlinear_search_is_bounded(monkeypatch):
    # Groebner leaves the system open and 12 unknowns are past the grid, so
    # the status is unknown; sympy's solve ran for minutes on this system
    def refuse(*args, **kwargs):
        raise AssertionError("sympy.solve was called")

    monkeypatch.setattr("sympy.solve", refuse)
    tgt = central_extension(["x", "y", "t"], [("z", "x*y + y*t")])
    res = dga_map_solve(example_initial(), tgt, {"x1": "t", "y1": "-x + y", "w1": "t + z"})
    assert res.status == "unknown"
    assert (res.unknowns, res.equations) == (12, 5)
    assert res.detail == "no rational solution found within the search bounds"


def test_solver_grid_searches_only_the_unknowns_its_equations_use():
    filiform = central_extension(["x", "y"], [("z", "x*y"), ("w", "x*z")])
    # the 5 equations use 6 of the 9 unknowns: the grid runs over those 6
    tgt = central_extension(["x", "y", "t"], [("z", "x*y + y*t")])
    res = dga_map_solve(filiform, tgt, {"z": "-x - y + t"})
    assert res.status == "solution"
    assert (res.unknowns, res.equations) == (9, 5)
    assert res.assignment["z"] == tgt.algebra.parse("-x - y + t")
    # the 6 equations use all 9 unknowns, past the grid's six
    res = dga_map_solve(filiform, free_abelian(["e1", "e2", "e3"]), {"w": "-e2 + e3"})
    assert res.status == "unknown"
    assert (res.unknowns, res.equations) == (9, 6)


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
    # x2 is free, so it maps to a closed form; the chain condition at u,
    # d(2*z2) = 2*x2*y2, forces its x2 coefficient s = 2
    cons = {"x1": "x1", "y1": "y1", "y2": "y2", "u": "2*z2"}
    res = dga_map_solve(src, tgt, cons)
    assert res.status == "solution"
    assert res.assignment["x2"] == tgt.algebra.parse("2*x2")
    # z is free: its transgression x1*y1 + s*x2*y2 has the monomials 1 and s in
    # the unknowns, which lift to z1 and z2, and every free unknown is zero
    assert res.assignment["z"] == tgt.algebra.parse("z1 + 2*z2")


def test_solver_elimination_bound_guard():
    c = heisenberg(2)
    with pytest.raises(EliminationBoundError) as info:
        dga_map_solve(c, c, {})
    assert info.value.unknowns > 12


def test_solver_rejects_images_outside_degree_one():
    c = heisenberg(1)
    for spec in ("x1 + x1*y1", "x1*y1"):
        with pytest.raises(ValueError, match="mixed degrees|has degree 2"):
            dga_map_solve(c, c, {"x1": spec, "y1": "y1"})


def test_solver_rejects_an_image_from_another_algebra():
    src, tgt = free_abelian(["a", "b"]), heisenberg(1)
    with pytest.raises(AlgebraError, match="different algebra"):
        dga_map_solve(src, tgt, {"a": src.algebra.gen("b"), "b": "x1"})
    res = dga_map_solve(src, tgt, {"a": tgt.algebra.gen("y1"), "b": "x1"})
    assert res.assignment["a"] == tgt.algebra.gen("y1")


def test_solver_rejects_unknown_constraint_names():
    c = heisenberg(1)
    with pytest.raises(ValueError):
        dga_map_solve(c, c, {"nope": "x1"})


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


def _formality_mix_models(seeds=(3, 11), kind=None):
    """The formality-mix models of the given seeds (176 each), from the benchmark's generator.

    ``kind`` keeps the specs of one kind only, such as "contr" (40 per seed).
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_formality_mix_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    # 38 example_contr forms and 128 towers, as the workload draws them
    return [
        inputs.build_model(s)
        for seed in seeds
        for s in inputs.formality_specs(random.Random(seed), 38, 128)
        if kind in (None, s[0])
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


def test_report_builds_no_cohomology_above_what_its_rules_read(monkeypatch):
    # generation fails at H^3, so resonance decides degree 1 only, on the
    # wedge table; the climb, the certificate's Betti numbers and the tower
    # read cochains: no class basis but H^1, no ring, so no structure constant
    built = _count_rings(monkeypatch)
    c = example_contr("y1*y2")
    rep = formality_report(c, 3)
    assert rep.overall == OVERALL_NOT_FORMAL and rep.best_formal is not None
    assert [ev.k for ev in rep.evidence if ev.rule == "generation"] == [2]
    models = [c] + _formality_mix_models(seeds=(3, 11), kind="contr")
    for m in models[1:]:
        formality_report(m, 3)
    assert len(models) == 81
    assert all(set(m._cohomology_cache) == {1} for m in models)
    assert built == []
    # every report at each k up to 4 on the catalog, NON_COORDINATE_CLOSED,
    # the tests/data models and the seed-3 formality-mix models
    models = [build() for build in _model_builders()] + _formality_mix_models(seeds=(3,))
    models = [m for m in models if all(g.degree == 1 for g in m.algebra.generators)]
    for m in models:
        for k in range(5):
            formality_report(m, k)
    assert len(models) == 17 + 6 + 4 + 176
    assert all(set(m._cohomology_cache) <= {1} for m in models)
    assert built == []


@pytest.mark.parametrize("k_max, bound", [(0, 0), (1, 1), (2, 1), (3, 1)])
def test_report_searches_resonance_only_below_the_generation_failure(monkeypatch, k_max, bound):
    # generation first fails at H^3 (k=2), so a resonance point in degree >= 2 decides nothing
    bounds = []

    def recording(c, s, **kw):
        bounds.append(s)
        return obstruction_resonance(c, s, **kw)

    monkeypatch.setattr(formality, "obstruction_resonance", recording)
    formality_report(example_contr("0"), k_max)
    assert bounds == [bound]


def generation_failing_tower():
    """A fixed 3-step tower whose H^2 is not generated in degree 1."""
    return central_extension(
        ["e1", "e2", "e3", "e4"],
        [
            ("u1", "-2*e1*e2 - e2*e3 + 2*e2*e4"),
            ("u2", "-2*e1*e3"),
            ("v1", "4*e1*u1 - e2*e3 - 2*e2*e4 - 2*e3*u1 + 4*e4*u1"),
        ],
    )


@pytest.mark.parametrize(
    "build, shared",
    [(generation_failing_tower, set()), (lambda: example_contr("y1*y2"), {2})],
    ids=["tower", "contr-y1y2"],
)
def test_a_report_shares_z1_and_each_coboundary_echelon(monkeypatch, build, shared):
    # Z^1 is H^1 for every rule: one row pass of d_1 and no kernel of it;
    # and a shared B^q is never extended in place: each equals a fresh
    # column echelon of d_(q-1).  Only a rule that reduces modulo B^2, the
    # resonance ring's or the solver's, builds one: the tower's report,
    # which fails generation at H^2, ranks cuts of d_1 alone
    c = build()
    kernels, passes = [], []
    real_kernel, real_pass = SparseMatrix.kernel, cdga._row_pass
    monkeypatch.setattr(SparseMatrix, "kernel", lambda m: kernels.append(m) or real_kernel(m))
    monkeypatch.setattr(cdga, "_row_pass", lambda d: passes.append(d) or real_pass(d))
    rep = formality_report(c, 3)
    monkeypatch.undo()
    d1 = c.differential_matrix(1)
    assert not any(m is d1 for m in kernels)
    assert sum(d is d1 for d in passes) == 1
    assert rep.verdicts() == formality_report(build(), 3).verdicts()
    assert set(c._coboundaries) == shared
    for q, span in c._coboundaries.items():
        fresh = Echelon()
        for col in c.differential_matrix(q - 1).cols:
            fresh.add(col)
        assert span.pivots == fresh.pivots
        assert span.rows == fresh.rows


def test_tower_report_stops_at_its_generation_failure():
    # the report needs cochains up to degree 2 and no class basis but H^1,
    # the basis of Z^1, and runs no resonance search
    c = generation_failing_tower()
    assert not is_twostep(c)
    rep = formality_report(c, 3)
    assert rep.verdicts() == [FORMAL, NOT_FORMAL, NOT_FORMAL, NOT_FORMAL]
    assert [(ev.rule, ev.k) for ev in rep.evidence if ev.kind == "not_formal"] == [("generation", 1)]
    assert max(c._matrix_cache) == 2
    assert set(c._cohomology_cache) == {1}


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
        rep = formality_report(c, k)
        assert (rep.verdict(k) == FORMAL) == (obstruction_generation(c, k) is None)


def test_random_seeded_reports_are_reproducible(seed=5):
    c = example_contr("y1*y2")
    rep1 = formality_report(c, 1, seed=seed)
    rep2 = formality_report(c, 1, seed=seed)
    assert rep1.verdicts() == rep2.verdicts()
    assert rep1.evidence == rep2.evidence


def _assert_the_report_skips_nothing(c, k_max, rep):
    """The work the report leaves out could not have changed its verdicts.

    The generation climb on cochains agrees with the full scan of the
    products of one ring.  The full resonance search finds nothing, or a
    degree already not formal, and what it finds below the generation
    failure the report holds too.
    """
    m = k_max + 1
    want = full_scan(from_cdga(c, m), m)
    gen = obstruction_generation(c, k_max)
    if want.generated:
        assert gen is None
    else:
        assert gen.k == want.failure_degree - 1
        assert gen.data == {"failure_degree": want.failure_degree, "cokernel_dim": want.cokernel_dim}
    if is_twostep(c):
        # the two-step decision reads generation up to H^(k_max+1) alone
        fails = None if want.generated else want.failure_degree - 1
        assert rep.verdicts() == [FORMAL if fails is None or k < fails else NOT_FORMAL for k in range(m)]
    ev = obstruction_resonance(c, k_max)
    assert ev is None or rep.verdict(ev.k) == NOT_FORMAL
    if ev is not None and (gen is None or ev.k < gen.k):
        assert ev in rep.evidence


def _assert_certified_degrees_obey_the_theorem(c, k_max):
    """k-formal implies H^<=k+1 generated in degree 1 and trivial resonance up to degree k.

    Returns the largest certified k, or None.
    """
    rep = formality_report(c, k_max)
    _assert_the_report_skips_nothing(c, k_max, rep)
    certified = [k for k, v in enumerate(rep.verdicts()) if v == FORMAL]
    if not certified:
        return None
    best, top = max(certified), c.algebra.top_degree()
    r = from_cdga(c, max(2, min(best + 1, top)))
    for k in certified:
        assert generated_in_degree_one_upto(c, min(k + 1, top)).generated
    if best >= 1:
        verdict = decide_r11_trivial(c)
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


# -- every not-formal payload re-checks -----------------------------------
#
# Each rule that can certify "not k-formal" is run on two fresh builds of the
# catalog (heisenberg(1..4) among them), the tests/data and
# NON_COORDINATE_CLOSED models and the seed-3 formality-mix models, and its
# payload is checked on the second build.


def _payload_model_pairs():
    pairs = [(build(), build()) for build in _model_builders()]
    pairs += zip(*(_formality_mix_models(seeds=(3,)) for _ in range(2)))
    return [(c, other) for c, other in pairs if c.algebra.top_degree() is not None]


def test_every_resonance_witness_is_a_nonzero_member():
    degrees = set()
    for c, other in _payload_model_pairs():
        for s in range(1, 5):
            ev = obstruction_resonance(c, s)
            if ev is None or "point" not in ev.data:
                continue
            i = ev.data["degree"]
            point = tuple(Fraction(x) for x in ev.data["point"])
            assert ev.k == i and any(point)
            assert in_resonance(from_cdga(other, i + 1), point, i)
            degrees.add(i)
    assert degrees == {1, 2, 3, 4}


def test_every_certified_nontrivial_resonance_has_a_nontrivial_quadric_system():
    seen = 0
    for c, other in _payload_model_pairs():
        ev = obstruction_resonance(c, 1)
        if ev is None or "point" in ev.data:
            continue
        assert "certified nontrivial" in ev.detail
        subspace = characteristic_subspace(other)
        forms = r11_quadric_system(subspace).forms
        assert forms and all(forms)
        assert _zero_locus_is_origin(forms, subspace.dim) is False
        seen += 1
    assert seen == 3


def test_every_generation_failure_is_the_full_scan():
    seen = 0
    for c, other in _payload_model_pairs():
        m = min(5, c.algebra.top_degree())
        want = full_scan(from_cdga(other, m), m)
        for k in range(m):
            got = [
                ev
                for ev in formality_report(c, k).evidence
                if ev.kind == "not_formal" and ev.rule in ("generation", "two-step-decision")
            ]
            if want.generated or want.failure_degree > k + 1:
                assert got == []
                continue
            [ev] = got
            assert ev.k == want.failure_degree - 1
            assert ev.data == {"failure_degree": want.failure_degree, "cokernel_dim": want.cokernel_dim}
            seen += 1
    assert seen > 100


def test_every_inconsistent_solver_equation_names_a_generator_and_a_monomial():
    seen = 0
    for c, other in _payload_model_pairs():
        for ev in formality_report(c, 1).evidence:
            if ev.rule == "morphism-solver" and "inconsistent equation" in ev.detail:
                break
        else:
            continue
        assert ev.kind == "not_formal"
        found = re.search(r"inconsistent equation: (.+) at '(.+)', coordinate (\S+)$", ev.detail)
        what, name, mono = found.groups()
        tower = bigraded_tower(other, stage_cap=formality.TOWER_CAP)
        assert what == ("chain condition" if name in tower.stages[0] else "exactness obstruction")
        assert name in [g.name for g in tower.cdga.algebra.generators]
        coordinate = other.algebra.parse(mono)
        assert coordinate.degree == 2 and list(coordinate.terms.values()) == [1]
        seen += 1
    assert seen


def test_the_report_solver_maps_the_tower_h1_onto_the_model_h1(monkeypatch):
    # each later stage of the tower transgresses classes independent modulo
    # B^2, so its Z^1 = H^1 is stage 0; the report fixes stage 0 to the H^1
    # representatives of the model, so every solution is invertible on H^1
    calls = []
    real = formality.dga_map_solve

    def recording(source, target, constraints):
        res = real(source, target, constraints)
        calls.append((source, target, constraints, res))
        return res

    monkeypatch.setattr(formality, "dga_map_solve", recording)
    kinds = ("contr", "heisenberg", "heisenberg_type")
    heavy = [m for kind in kinds for m in _formality_mix_models(seeds=(3,), kind=kind)]
    builders = list(_model_builders()) + [lambda m=m: m for m in heavy]
    solutions = 0
    for cap in (formality.TOWER_CAP, 1, 2):
        monkeypatch.setattr(formality, "TOWER_CAP", cap)
        for build in builders:
            c = build()
            if any(g.degree != 1 for g in c.algebra.generators):
                continue
            tower = bigraded_tower(c, stage_cap=cap)
            gens = [tower.cdga.algebra.gen(name) for name in tower.stages[0]]
            assert list(tower.cdga.cohomology(1).representatives) == gens
            formality_report(c, 1)
        for source, target, constraints, res in calls:
            reps = list(target.cohomology(1).representatives)
            assert list(constraints) == [str(z) for z in source.cohomology(1).representatives]
            assert list(constraints.values()) == reps
            if res.status == "solution":
                assert [res.assignment[name] for name in constraints] == reps
                solutions += 1
        calls.clear()
    assert solutions
