"""Golden CLI outputs: exact stdout and exit codes of fixed commands.

The fixture ``tests/data/golden_cli.json`` holds, for each command, the
exit code and stdout of ``nilform.cli.main`` run in process.  A change that
alters any class representative, label, dimension or verdict shows up
here as a byte difference.  When an output change is intended, regenerate
the fixture from a checkout with::

    PYTHONPATH=src python tests/test_golden.py

and review the diff of the JSON file before committing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from nilform import cli

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "data" / "golden_cli.json"

COMMANDS = (
    ("cohomology", "--preset", "heisenberg:4", "--format", "json"),
    ("resonance", "--preset", "heisenberg:3", "--q", "3", "--point", "x1 + 2*y2"),
    ("formality", "--preset", "heisenberg:3"),
    ("resonance", "--preset", "heisenberg:2", "--q", "1", "--decide"),
    ("formality", "--preset", "example_contr:p=y1*y2", "--k-max", "3", "--format", "json"),
    ("cohomology", "--preset", "example_contr:p=x1*y2", "--format", "json"),
    ("cohomology", "--preset", "heisenberg_type:2,5", "--format", "json"),
    ("formality", "--preset", "example_contr:p=x1*y2", "--k-max", "1", "--format", "json"),
    # d has coefficients 1/2 and -1/2, so its matrices keep Fraction entries
    ("cohomology", "--input", "tests/data/half_coefficient.json", "--format", "json"),
    # 2-step: the generation climb reaches H^3 of a 13-generator model
    ("formality", "--preset", "heisenberg:6", "--format", "json"),
    # a 3-step tower of the benchmark's light class: generation fails at H^2
    ("formality", "--input", "tests/data/three_step_tower.json", "--format", "json"),
    # a chosen complement: the evidence lists its names in the order given
    (
        "formality", "--preset", "example_contr:p=y1*y2", "--k-max", "3",
        "--complement", "a,w2,w1", "--format", "json",
    ),
    # the prop-art certificate passes degree 2 without the chain-map solver
    ("formality", "--preset", "example_contr:p=0", "--k-max", "3", "--format", "json"),
    # the kernel of d_1 and the H^1 representatives are two bases of Z^1 here,
    # and the solver ends at an inconsistent exactness equation
    ("formality", "--input", "tests/data/dependent_closed.json", "--k-max", "3", "--format", "json"),
    # the H^1 representative 2z - w has leading entry 2, not 1
    ("formality", "--input", "tests/data/scaled_closed.json", "--k-max", "3", "--format", "json"),
    # the resonant middle degree: both maps at q = 4 have full F_p rank at q = 3 or 5
    ("resonance", "--preset", "heisenberg:4", "--q", "4", "--point", "x1 + 2*y2"),
    # a decomposable witness: the one degree-1 resonance path that builds a ring
    ("resonance", "--preset", "heisenberg_type:1,3", "--decide", "--format", "json"),
    # H^1 representatives that are no identifiers (w1 - v2): classes and the
    # sampled witness are printed in the symbols a0..a6, which --point parses
    ("resonance", "--input", "tests/data/dependent_closed.json", "--q", "2", "--decide"),
    # that witness fed back; --point= carries an expression that starts with '-'
    (
        "resonance", "--input", "tests/data/dependent_closed.json", "--q", "2",
        "--point=-1*a0 + -1*a1 + -1*a2 + -1*a3 + -1*a4",
    ),
    # b_1 = 1 and H^2 = Q: the origin lies in R^2, but no nonzero point does,
    # so sampling finds no witness
    ("resonance", "--input", "tests/data/mixed_degree.json", "--q", "2", "--decide"),
    # text tables of small models and of the degree-1 decisions
    ("cohomology", "--preset", "heisenberg:1"),
    ("formality", "--preset", "heisenberg:2", "--k-max", "2"),
    ("resonance", "--preset", "heisenberg:2", "--decide"),
    ("resonance", "--preset", "heisenberg_type:1,3", "--decide"),
    # degree 1 refuted by the chain-map search out of the tower, in text
    ("formality", "--preset", "example_contr:p=y1*y2", "--k-max", "1"),
    # sampling at q = 2, where the exact decision does not reach
    ("resonance", "--preset", "heisenberg:3", "--q", "2", "--decide"),
    # the points above without spaces, as one shell word each
    ("resonance", "--preset", "heisenberg:4", "--q", "4", "--point", "x1+2*y2"),
    (
        "resonance", "--input", "tests/data/dependent_closed.json", "--q", "2",
        "--point=-1*a0+-1*a1+-1*a2+-1*a3+-1*a4",
    ),
    # single queries on a tensor model, a member and a non-member: map 3 is
    # formed off the F_p pivots of map 2
    ("resonance", "--preset", "heisenberg_type:2,5", "--q", "3", "--point", "x1 + 2*y2"),
    ("resonance", "--preset", "heisenberg_type:2,5", "--q", "3", "--point", "x1 + t5"),
    # a power is one monomial: the answer of x1^2, with no loop over the exponent
    ("resonance", "--preset", "heisenberg:1", "--point", "x1^100000000"),
    # a degree far above the top degree 5: its class bases are empty and
    # none of the degrees between is built
    ("resonance", "--preset", "heisenberg:2", "--q", "99999999", "--point", "x1"),
)


def run(argv) -> dict:
    """Exit code and stdout of one in-process CLI call, run from the repository root.

    An ``--input`` path is relative to the root and echoed as given.
    """
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def case_id(argv) -> str:
    """The first three words of a command, its chosen complement if any, and
    a point given as one ``--point=`` word."""
    words = list(argv[:3])
    if "--complement" in argv:
        i = argv.index("--complement")
        words += argv[i : i + 2]
    words += [w for w in argv if w.startswith("--point=")]
    return " ".join(words)


def case_ids(commands) -> list[str]:
    """Each command's `case_id`, or its whole argv when an earlier command took that id."""
    ids: list[str] = []
    for argv in commands:
        short = case_id(argv)
        ids.append(" ".join(argv) if short in ids else short)
    return ids


@pytest.mark.parametrize("k", range(len(COMMANDS)), ids=case_ids(COMMANDS))
def test_cli_output_matches_golden_fixture(k):
    want = json.loads(FIXTURE.read_text())[k]
    assert want["argv"] == list(COMMANDS[k])
    assert run(COMMANDS[k]) == want


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    doc = [run(argv) for argv in COMMANDS]
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n")
    sys.stdout.write(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)\n")
