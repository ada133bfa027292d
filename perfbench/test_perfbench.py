"""Tests of the benchmark's own code: inputs, statistics, tracing, metadata."""

from __future__ import annotations

import importlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
from nilform import ring  # noqa: E402
from nilform.catalog import central_extension, example_contr, heisenberg  # noqa: E402
from nilform.formality import formality_report, is_twostep  # noqa: E402
from workloads import heisenberg_betti  # noqa: E402

# -- input generators ----------------------------------------------------


def test_tower_spec_is_seeded():
    assert inputs.tower_spec(random.Random(5)) == inputs.tower_spec(random.Random(5))
    assert inputs.tower_spec(random.Random(5)) != inputs.tower_spec(random.Random(6))


def test_towers_are_valid_three_step_models():
    rng = random.Random(11)
    for _ in range(6):
        base, central = inputs.tower_spec(rng)
        assert [name[0] for name, _ in central] == ["u", "u", "v"]
        c = central_extension(list(base), list(central))
        c.validate()
        assert c.is_minimal
        assert not is_twostep(c)
        # each step transgresses a closed 2-form that is not exact before it
        for i, (name, form) in enumerate(central):
            before = central_extension(list(base), list(central[:i]))
            t = before.algebra.parse(form)
            assert before.is_cocycle(t)
            assert before.is_coboundary(t) is None
        # formality_report accepts it and decides degree 0
        assert formality_report(c, 1).verdict(0) == "CertifiedKFormal"


def test_contr_forms_build_models():
    rng = random.Random(3)
    forms = [inputs.contr_form(rng) for _ in range(20)]
    assert forms == [inputs.contr_form(r) for r in [random.Random(3)] for _ in range(20)]
    for p in forms:
        c = example_contr(p)
        assert len(c.algebra.generators) == 8


def test_nonzero_point_never_origin():
    rng = random.Random(0)
    for _ in range(200):
        p = inputs.nonzero_point(rng, 3, -1, 1)
        assert any(p) and all(isinstance(x, Fraction) for x in p)


def test_formality_specs_cover_every_set():
    specs = inputs.formality_specs(random.Random(1), contr=3, towers=2)
    kinds = [s[0] for s in specs]
    assert kinds.count("contr") == 5  # two fixed AC07 models plus three seeded
    assert kinds.count("tower") == 2
    assert specs[-len(inputs.AC04_MODELS):] == list(inputs.AC04_MODELS)
    for spec in specs:
        inputs.build_model(spec)


def test_closed_form_matches_ladder_dims():
    dims = ring.from_cdga(heisenberg(3), 7).dims()
    assert dims == [heisenberg_betti(3, q) for q in range(8)]


# -- statistics ----------------------------------------------------------


def test_percentile_interpolates():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert stats.median(xs) == 2.5
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 100) == 4.0
    assert stats.percentile(xs, 90) == 3.7
    assert stats.percentile([7.0], 90) == 7.0


def test_supported_percentile_needs_ten_beyond():
    assert stats.supported_percentile(19) is None
    assert stats.supported_percentile(20) == 50
    assert stats.supported_percentile(40) == 75
    assert stats.supported_percentile(100) == 90
    assert stats.supported_percentile(999) == 90
    assert stats.supported_percentile(1000) == 99


def test_speed_scale():
    assert speed.scale([speed.REF_S, speed.REF_S]) == 1.0
    assert speed.scale([2 * speed.REF_S, 2 * speed.REF_S, 2 * speed.REF_S]) == 0.5
    # one probe caught in a context switch does not move the factor
    assert speed.scale([speed.REF_S, speed.REF_S, 9 * speed.REF_S]) == 1.0


# -- tracing -------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    names = ["a", "b", "c"]
    # a[0,100] has children b[10,30] and c[40,70]; c has child b[45,55]
    name = [0, 1, 2, 1]
    start = [0, 10, 40, 45]
    end = [100, 30, 70, 55]
    parent = [-1, 0, 0, 2]
    out = tracer.summarize(names, name, start, end, parent)
    assert out["a"] == [100, 50, 1]
    assert out["b"] == [30, 30, 2]
    assert out["c"] == [30, 20, 1]


def test_recursive_span_counted_once_inclusive():
    out = tracer.summarize(["p"], [0, 0], [0, 5], [20, 15], [-1, 0])
    assert out["p"] == [20, 20, 2]


def test_install_traces_and_restores():
    originals = (ring.from_cdga, ring.RingPresentation.labels)
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        assert ring.from_cdga is not originals[0]
        r = ring.from_cdga(heisenberg(2), 5)
        r.labels(2)
        tr.active = False
        ring.from_cdga(heisenberg(1), 3)
    finally:
        restore()
    assert (ring.from_cdga, ring.RingPresentation.labels) == originals
    summary = tracer.tracer_summary(tr)
    assert summary["ring.from_cdga"][2] == 1
    assert summary["cdga.cohomology"][2] == 6
    assert tr.counts["cdga.classes"] == sum(r.dims())
    assert tr.counts["gca.basis_monomials"] > 0
    incl, self_ns, _ = summary["ring.from_cdga"]
    assert 0 <= self_ns <= incl


def test_install_wraps_every_target():
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        for mod_name, cls_name, attr, _, _ in tracer._hooks(tr):
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            assert hasattr(owner.__dict__[attr], "__perfbench_wrapped__"), (mod_name, cls_name, attr)
    finally:
        restore()


def test_install_refuses_a_missing_target(monkeypatch):
    monkeypatch.delattr(ring, "generated_in_degree_one_upto")
    originals = (ring.from_cdga, ring.RingPresentation.labels)
    with pytest.raises(LookupError, match="generated_in_degree_one_upto"):
        tracer.install(tracer.Tracer())
    # nothing was left wrapped
    assert (ring.from_cdga, ring.RingPresentation.labels) == originals


# -- metadata ------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
