"""Tests for the command-line interface: output shape and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilform import cli
from test_formality import generation_failing_tower
from test_ring import NON_COORDINATE_CLOSED

DATA = Path(__file__).resolve().parent / "data"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 0, err
    return json.loads(out)


# -- preset catalog -------------------------------------------------------


def test_preset_list_table(capsys):
    code, out, _ = run(capsys, ["preset", "list"])
    assert code == 0
    for name in ("heisenberg", "heisenberg_type", "example_initial", "example_contr"):
        assert name in out


def test_preset_list_json(capsys):
    doc = run_json(capsys, ["preset", "list"])
    names = [e["name"] for e in doc["presets"]]
    assert names == sorted(names)
    assert "heisenberg" in names


# -- cohomology -----------------------------------------------------------


def test_cohomology_default_truncation(capsys):
    code, out, _ = run(capsys, ["cohomology", "--preset", "heisenberg:1"])
    assert code == 0
    assert "betti: 1,2,2,1" in out


def test_cohomology_requested_truncation(capsys):
    code, out, _ = run(
        capsys, ["cohomology", "--preset", "heisenberg:2", "--max-degree", "5"]
    )
    assert code == 0
    assert "betti: 1,4,5,5,4,1" in out


def test_cohomology_of_a_deep_truncation(capsys):
    # degree 2500 of Q[u] x E(a): one class per degree, the basis built in a loop
    argv = ["cohomology", "--input", str(DATA / "mixed_degree.json"), "--max-degree", "2500"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert out.splitlines()[-1] == "betti: " + ",".join(["1"] * 2501)


def test_cohomology_json_structure(capsys):
    doc = run_json(capsys, ["cohomology", "--preset", "heisenberg:1"])
    assert doc["tool"]["name"] == "nilform"
    assert doc["command"] == "cohomology"
    assert doc["cohomology"]["betti"] == [1, 2, 2, 1]
    assert doc["cohomology"]["classes"][1] == ["x1", "y1"]
    gens = [g["name"] for g in doc["input"]["generators"]]
    assert gens == ["x1", "y1", "z"]
    dz = doc["input"]["differential"][0]
    assert dz["generator"] == "z"
    assert dz["value"] == [{"coeff": "1", "monomial": ["x1", "y1"]}]


def test_cohomology_from_file(capsys, tmp_path):
    doc = {
        "generators": [
            {"name": "a", "degree": 1},
            {"name": "b", "degree": 1},
            {"name": "c", "degree": 1},
        ],
        "differential": [
            {"generator": "c", "value": [{"coeff": "2", "monomial": ["a", "b"]}]}
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["cohomology", "--input", str(path)])
    assert code == 0
    assert "betti: 1,2,2,1" in out


# -- resonance ------------------------------------------------------------


def test_resonance_membership_point(capsys):
    doc = run_json(
        capsys,
        ["resonance", "--preset", "heisenberg:2", "--q", "2", "--point", "x1"],
    )
    assert doc["resonance"]["point"]["member"] is True
    assert doc["resonance"]["point"]["dimension"] == 2


def test_resonance_membership_zero_point(capsys):
    doc = run_json(
        capsys,
        ["resonance", "--preset", "heisenberg:2", "--q", "1", "--point", "x1"],
    )
    assert doc["resonance"]["point"]["member"] is False


def test_resonance_decide_trivial(capsys):
    code, out, _ = run(
        capsys, ["resonance", "--preset", "example_initial", "--q", "1", "--decide"]
    )
    assert code == 0
    assert "CertifiedTrivial" in out


def test_resonance_decide_witness(capsys):
    doc = run_json(
        capsys, ["resonance", "--preset", "heisenberg:1", "--q", "1", "--decide"]
    )
    decision = doc["resonance"]["decision"]
    assert decision["verdict"] == "Witness"
    assert "witness" in decision


def test_resonance_decide_higher_degree_is_sampling(capsys):
    code, out, _ = run(
        capsys, ["resonance", "--preset", "heisenberg:2", "--q", "2", "--decide"]
    )
    assert code == 0
    assert "sampling" in out
    assert "SampledWitness" in out or "Inconclusive" in out


def test_resonance_bad_point_expression(capsys):
    code, _, err = run(
        capsys,
        ["resonance", "--preset", "heisenberg:1", "--q", "1", "--point", "x1*y1"],
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["resonance", "--preset", "heisenberg:1", "--point", "(" * 600 + "x1" + ")" * 600],
        ["formality", "--preset", "example_contr:p=" + "(" * 600 + "y1*y2" + ")" * 600],
    ],
    ids=["point", "preset-form"],
)
def test_deeply_nested_parentheses_are_an_input_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: parentheses nested too deeply\n"


@pytest.mark.parametrize(
    "argv, token",
    [
        (["resonance", "--preset", "heisenberg:2", "--q", "3", "--point", "1/0*x1"], "1/0"),
        (["formality", "--preset", "example_contr:p=y1*y2 + 2/0*x1*y2"], "2/0"),
    ],
    ids=["point", "preset-form"],
)
def test_a_zero_denominator_is_an_input_error(capsys, argv, token):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: zero denominator in '{token}'\n"


def test_resonance_witnesses_parse_back_as_points(capsys, tmp_path):
    # a witness is printed in the class symbols, which --point parses, also
    # where a representative is no identifier and the symbols are a0, a1, ...
    paths = [p for p in sorted(DATA.glob("*.json")) if p.name != "golden_cli.json"]
    for param in NON_COORDINATE_CLOSED:
        path = tmp_path / f"{param.id}.json"
        path.write_text(json.dumps(cli._echo_model(param.values[0](), {})))
        paths.append(path)
    fallback = 0
    for path in paths:
        for q in ("1", "2"):
            argv = ["resonance", "--input", str(path), "--q", q]
            doc = run_json(capsys, argv + ["--decide"])["resonance"]
            witness = doc["decision"].get("witness")
            if witness is None:
                continue
            code, out, _ = run(capsys, argv + ["--decide"])
            assert code == 0 and f"{doc['decision']['verdict']} {witness['expression']}" in out
            point = run_json(capsys, argv + [f"--point={witness['expression']}"])["resonance"]["point"]
            assert point["coordinates"] == witness["point"]
            assert point["member"] is True
            fallback += any(" = " in label for label in doc["labels"])
    # both witness paths, the exact one at q = 1 and sampling at q = 2, reach the fallback
    assert fallback >= 2 * len(NON_COORDINATE_CLOSED)


def test_resonance_negative_degree_rejected(capsys):
    code, _, _ = run(capsys, ["resonance", "--preset", "heisenberg:1", "--q", "-1"])
    assert code == 2


# -- formality ------------------------------------------------------------


def test_formality_heisenberg_thresholds(capsys):
    doc = run_json(
        capsys, ["formality", "--preset", "heisenberg:3", "--k-max", "4"]
    )
    verdicts = {v["k"]: v["verdict"] for v in doc["formality"]["verdicts"]}
    assert verdicts[2] == "CertifiedKFormal"
    assert verdicts[3] == "CertifiedNotKFormal"
    assert doc["formality"]["overall"] == "CertifiedNotFormal"


def test_formality_type_presets(capsys):
    doc = run_json(
        capsys, ["formality", "--preset", "heisenberg_type:2,5", "--k-max", "3"]
    )
    verdicts = {v["k"]: v["verdict"] for v in doc["formality"]["verdicts"]}
    assert verdicts[1] == "CertifiedKFormal"
    assert verdicts[2] == "CertifiedNotKFormal"


def test_formality_twisted_tower_evidence(capsys):
    doc = run_json(
        capsys,
        ["formality", "--preset", "example_contr:p=y1*y2", "--k-max", "1"],
    )
    verdicts = {v["k"]: v["verdict"] for v in doc["formality"]["verdicts"]}
    assert verdicts[1] == "CertifiedNotKFormal"
    rules = [e["rule"] for e in doc["formality"]["evidence"]]
    assert "morphism-solver" in rules


def test_formality_complement_flag(capsys):
    code, out, _ = run(
        capsys,
        ["formality", "--preset", "heisenberg:2", "--k-max", "1", "--complement", "z"],
    )
    assert code == 0
    assert "CertifiedKFormal" in out


def test_formality_bad_complement(capsys):
    code, _, err = run(
        capsys,
        ["formality", "--preset", "heisenberg:2", "--k-max", "1", "--complement", "x1"],
    )
    assert code == 2
    assert "error" in err


def test_a_complement_is_validated_once_per_run(capsys, monkeypatch):
    from nilform import formality

    calls = []
    real = formality.validate_decomposition
    monkeypatch.setattr(
        formality, "validate_decomposition", lambda *args: calls.append(args) or real(*args)
    )
    argv = ["formality", "--preset", "example_contr:p=y1*y2", "--k-max", "3"]
    code, out, _ = run(capsys, argv + ["--complement", "a,w2,w1"])
    assert code == 0
    assert "prop-art-certificate" in out
    # decomposition_from_names validates; the report's certificate reads that
    assert len(calls) == 1
    # a bad complement on a 2-step model never reaches the certificate
    calls.clear()
    code, _, err = run(capsys, ["formality", "--preset", "heisenberg:2", "--complement", "x1"])
    assert (code, err) == (2, "error: invalid decomposition: vectors are dependent\n")
    assert len(calls) == 1


def test_formality_strict_without_bound_is_clean(capsys):
    code, _, _ = run(
        capsys,
        ["formality", "--preset", "heisenberg:2", "--k-max", "1", "--strict"],
    )
    assert code == 0


def test_formality_strict_exits_three_on_bound(capsys, monkeypatch):
    from nilform.formality import Evidence, FormalityReport

    def fake_report(c, k_max, *, seed=0, decomposition=None, **kw):
        rep = FormalityReport(k_max)
        rep.bound_exceeded = True
        rep.add(Evidence("morphism-solver", 1, "info", "search skipped"))
        return rep

    monkeypatch.setattr("nilform.formality.formality_report", fake_report)
    code, out, _ = run(
        capsys,
        ["formality", "--preset", "heisenberg:2", "--k-max", "1", "--strict"],
    )
    assert code == 3
    assert "bound" in out
    code2, _, _ = run(
        capsys, ["formality", "--preset", "heisenberg:2", "--k-max", "1"]
    )
    assert code2 == 0


def test_formality_rejects_non_model_input(capsys, tmp_path):
    doc = {
        "generators": [{"name": "a", "degree": 1}, {"name": "u", "degree": 2}],
        "differential": [],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["formality", "--input", str(path), "--k-max", "1"])
    assert code == 2
    assert "degree 1" in err


def test_formality_rejects_mixed_degrees_before_the_complement(capsys):
    # u of degree 2 comes first, so d_1's columns are not indexed by generator
    path = Path(__file__).resolve().parent / "data" / "mixed_degree.json"
    code, out, err = run(capsys, ["formality", "--input", str(path), "--complement", "a"])
    assert code == 2
    assert out == ""
    assert err == "error: model must be generated in degree 1\n"


# -- input validation -----------------------------------------------------


def bad_input_case(capsys, tmp_path, doc, fragment):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    code, _, err = run(capsys, ["cohomology", "--input", str(path)])
    assert code == 2
    assert fragment in err


def test_input_malformed_rational(capsys, tmp_path):
    bad_input_case(
        capsys,
        tmp_path,
        {
            "generators": [{"name": "a", "degree": 1}],
            "differential": [
                {"generator": "a", "value": [{"coeff": "1/0", "monomial": []}]}
            ],
        },
        "bad rational",
    )


def test_input_unknown_generator_name(capsys, tmp_path):
    bad_input_case(
        capsys,
        tmp_path,
        {
            "generators": [{"name": "a", "degree": 1}],
            "differential": [
                {"generator": "b", "value": []}
            ],
        },
        "unknown generator",
    )


@pytest.mark.parametrize(
    "entry, fragment",
    [
        ({"generator": ["b"], "value": []}, "'generator' name"),
        ({"generator": "b", "value": [{"coeff": "1", "monomial": [["a"], "a"]}]}, "'monomial'"),
    ],
    ids=["generator", "monomial"],
)
def test_input_non_string_generator_name(capsys, tmp_path, entry, fragment):
    # a list where a name belongs is an input error, not an unhashable lookup
    doc = {"generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 1}], "differential": [entry]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["cohomology", "--input", str(path)])
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def test_input_differential_entry_needs_a_value(capsys, tmp_path):
    # terms under another key are no zero differential: d(z) = x*y here
    gens = [{"name": n, "degree": 1} for n in ("x", "y", "z", "w", "u")]
    terms = [{"coeff": "1", "monomial": ["x", "y"]}]
    doc = {"generators": gens, "differential": [{"generator": "z", "terms": terms}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["formality", "--input", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: each differential entry needs a 'generator' name and a 'value'\n"
    # an explicit empty value stays legal, as does a generator with no entry
    doc["differential"] = [{"generator": "z", "value": []}]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["formality", "--input", str(path)])
    assert code == 0 and "overall: CertifiedFormal" in out


def test_input_duplicate_differential(capsys, tmp_path):
    bad_input_case(
        capsys,
        tmp_path,
        {
            "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 1}],
            "differential": [
                {"generator": "a", "value": []},
                {"generator": "a", "value": []},
            ],
        },
        "duplicate",
    )


def test_input_bad_degree(capsys, tmp_path):
    bad_input_case(
        capsys,
        tmp_path,
        {"generators": [{"name": "a", "degree": 0}], "differential": []},
        "positive integer degree",
    )
    bad_input_case(
        capsys,
        tmp_path,
        {"generators": [{"name": "a", "degree": True}], "differential": []},
        "positive integer degree",
    )


def test_input_not_json(capsys, tmp_path):
    bad_input_case(capsys, tmp_path, "{not json", "error")


def test_input_not_object(capsys, tmp_path):
    bad_input_case(capsys, tmp_path, json.dumps([1, 2]), "JSON object")


def test_input_square_nonzero_rejected(capsys, tmp_path):
    # d(e) = c*f with d(c) = a*b and d(f) = u*v gives d(d(e)) != 0
    doc = {
        "generators": [
            {"name": "a", "degree": 1},
            {"name": "b", "degree": 1},
            {"name": "u", "degree": 1},
            {"name": "v", "degree": 1},
            {"name": "c", "degree": 1},
            {"name": "f", "degree": 1},
            {"name": "e", "degree": 1},
        ],
        "differential": [
            {"generator": "c", "value": [{"coeff": "1", "monomial": ["a", "b"]}]},
            {"generator": "f", "value": [{"coeff": "1", "monomial": ["u", "v"]}]},
            {"generator": "e", "value": [{"coeff": "1", "monomial": ["c", "f"]}]},
        ],
    }
    path = tmp_path / "sq.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["cohomology", "--input", str(path)])
    assert code == 2
    assert "d(d(" in err or "nonzero" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run(
        capsys, ["cohomology", "--input", str(tmp_path / "missing.json")]
    )
    assert code == 2
    assert "error" in err


# -- usage errors ---------------------------------------------------------


def test_usage_no_subcommand():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 1


def test_usage_missing_input():
    with pytest.raises(SystemExit) as info:
        cli.main(["cohomology"])
    assert info.value.code == 1


def test_usage_both_inputs(tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.main(
            ["cohomology", "--preset", "heisenberg:1", "--input", "x.json"]
        )
    assert info.value.code == 1


def test_usage_bad_format_choice():
    with pytest.raises(SystemExit) as info:
        cli.main(["cohomology", "--preset", "heisenberg:1", "--format", "xml"])
    assert info.value.code == 1


# -- determinism ----------------------------------------------------------


def test_json_output_is_reproducible(capsys):
    argv = ["resonance", "--preset", "heisenberg:1", "--q", "1", "--decide",
            "--seed", "3", "--format", "json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_table_output_is_reproducible(capsys):
    argv = ["formality", "--preset", "heisenberg:2", "--k-max", "2", "--seed", "5"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


# -- import cost ----------------------------------------------------------

_LIGHT_COMMANDS_PROBE = """
import sys

import nilform.cli

loaded = ["sympy" in sys.modules]
for argv in (
    ["cohomology", "--preset", "heisenberg:4", "--format", "json"],
    ["resonance", "--preset", "heisenberg:3", "--q", "3", "--point", "x1 + 2*y2"],
    ["resonance", "--preset", "heisenberg:2", "--q", "1", "--decide"],
    ["resonance", "--preset", "heisenberg_type:1,3", "--q", "1", "--decide"],
    ["formality", "--preset", "heisenberg:3"],
    ["formality", "--preset", "example_contr:p=y1*y2", "--k-max", "0"],
    ["formality", "--input", sys.argv[1]],
    # the chain-map solver: a refutation, then a map found
    ["formality", "--preset", "example_contr:p=y1*y2", "--k-max", "3", "--format", "json"],
    ["formality", "--preset", "example_contr:p=x1*y2", "--k-max", "1", "--format", "json"],
):
    assert nilform.cli.main(argv) == 0
    loaded.append("sympy" in sys.modules)
sys.stderr.write(repr(loaded))
"""


def test_light_commands_never_import_sympy(tmp_path):
    # sympy is imported lazily, only by linalg.groebner_leads, which the
    # Groebner steps of the degree-1 resonance decision and of a non-linear
    # chain-map system call.  The F_p Macaulay ranks certify a trivial
    # quadric system, and a system of zero forms needs no test, so --decide
    # runs no Groebner basis on heisenberg:2 (trivial) or on
    # heisenberg_type:1,3 (a witness).  A model that is not
    # 2-step and fails generation at H^2 runs neither the decision nor the
    # solver, and the solver's systems on example_contr are linear.
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps(cli._echo_model(generation_failing_tower(), {})))
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LIGHT_COMMANDS_PROBE, str(tower)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode() == repr([False] * 10)


_LAYERS_PROBE = """
import io
import sys
from contextlib import redirect_stdout

import nilform.cli

with redirect_stdout(io.StringIO()):
    assert nilform.cli.main(sys.argv[1:]) == 0
layers = sorted(m for m in sys.modules if m.startswith("nilform"))
sys.stderr.write(repr((layers, [m for m in ("dataclasses", "inspect") if m in sys.modules])))
"""

_ENTRY = ["nilform", "nilform.catalog", "nilform.cdga", "nilform.cli", "nilform.gca", "nilform.linalg"]


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["preset", "list"], []),
        (["cohomology", "--preset", "heisenberg:4", "--format", "json"], ["ring"]),
        (["resonance", "--preset", "heisenberg:3", "--q", "3", "--point", "x1 + 2*y2"],
         ["resonance", "ring"]),
        (["resonance", "--preset", "heisenberg:2", "--q", "1", "--decide"], ["resonance", "ring"]),
        (["formality", "--preset", "heisenberg:3"], ["formality", "resonance", "ring"]),
        (["formality", "--preset", "example_contr:p=y1*y2", "--k-max", "3", "--format", "json"],
         ["formality", "resonance", "ring"]),
    ],
    ids=["preset-list", "cohomology", "resonance-point", "resonance-decide", "formality",
         "formality-solver"],
)
def test_a_command_loads_only_its_layers(argv, layers):
    # a cold command compiles every module it imports, so each subcommand
    # imports its own layers, and no layer makes its records with dataclasses
    # (which brings in inspect, ast, dis and tokenize)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LAYERS_PROBE, *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    expected = sorted(_ENTRY + [f"nilform.{m}" for m in layers])
    assert proc.stderr.decode() == repr((expected, []))
