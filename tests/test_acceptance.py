"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS or FAIL line on the real stdout so a full
run gives exactly twelve verdict lines.  Everything here is exact rational
arithmetic with zero tolerances; where randomness appears it is seeded.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from nilform.catalog import (
    central_extension,
    example_contr,
    example_initial,
    free_abelian,
    heisenberg,
    heisenberg_betti_oracle,
    heisenberg_summands,
    heisenberg_type,
    lefschetz_corank,
)
from nilform.cdga import tensor
from nilform.formality import (
    FORMAL,
    INCONCLUSIVE,
    NOT_FORMAL,
    OVERALL_FORMAL,
    OVERALL_NOT_FORMAL,
    FormalityReport,
    MapTemplate,
    bigraded_tower,
    certify_prop_art,
    dga_map_solve,
    formality_report,
    full_formality,
    infer_prop_k2,
    obstruction_generation,
    obstruction_resonance,
)
from nilform.linalg import Echelon
from nilform.resonance import (
    decide_r11_trivial,
    in_resonance,
    kunneth_membership,
    mu_complex_dim,
    r11_quadric_system,
)
from nilform.ring import (
    characteristic_subspace,
    from_cdga,
    generated_in_degree_one_upto,
)


def criterion(number: int, summary: str):
    """Print one verdict line per criterion, bypassing output capture."""

    def decorate(fn):
        def wrapper(capsys):
            try:
                fn()
            except BaseException:
                with capsys.disabled():
                    print(f"AC{number:02d} FAIL  {summary}", flush=True)
                raise
            with capsys.disabled():
                print(f"AC{number:02d} PASS  {summary}", flush=True)

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    return decorate


def combined_point(ring_ab, ring_a, ring_b, w_a, w_b):
    """Coordinates of (w_a, w_b) in the tensor ring, matched by label."""
    values = {}
    for lab, c in zip(ring_a.labels(1), w_a):
        values[lab] = c
    for lab, c in zip(ring_b.labels(1), w_b):
        if lab in values:
            lab = lab + "'"
        values[lab] = c
    return tuple(values.get(lab, Fraction(0)) for lab in ring_ab.labels(1))


@criterion(1, "Heisenberg Betti tables match the independent rank oracle")
def test_ac01_heisenberg_betti_tables():
    start = time.monotonic()
    frozen = {
        1: [1, 2, 2, 1],
        2: [1, 4, 5, 5, 4, 1],
        3: [1, 6, 14, 14, 14, 14, 6, 1],
    }
    for n in range(1, 5):
        top = 2 * n + 1
        dims = from_cdga(heisenberg(n), top).dims()
        oracle = [heisenberg_betti_oracle(n, q) for q in range(top + 1)]
        assert dims == oracle
        if n in frozen:
            assert dims == frozen[n]
    assert time.monotonic() - start < 10.0


@criterion(2, "second cohomology summand vanishes up to n and appears at n+1")
def test_ac02_summand_split():
    for n in range(1, 5):
        for q in range(0, 2 * n + 2):
            second = heisenberg_summands(n, q)[1]
            if q <= n:
                assert second == 0
        assert heisenberg_summands(n, n + 1)[1] > 0


@criterion(3, "Heisenberg resonance grids and exact degree-1 decisions")
def test_ac03_heisenberg_resonance():
    ranges = {1: range(-4, 5), 2: range(-2, 3), 3: range(-2, 3)}
    for n in (1, 2, 3):
        r = from_cdga(heisenberg(n), n + 1)
        b1 = 2 * n
        points = []
        for cand in itertools.product(ranges[n], repeat=b1):
            if any(cand):
                points.append(tuple(Fraction(v) for v in cand))
            if len(points) == 50:
                break
        assert len(points) == 50
        for w in points:
            for q in range(n):
                assert not in_resonance(r, w, q)
            assert in_resonance(r, w, n)
    assert decide_r11_trivial(from_cdga(heisenberg(1), 2)).kind == "witness"
    for n in (2, 3):
        assert decide_r11_trivial(from_cdga(heisenberg(n), 2)).kind == "trivial"


@criterion(4, "partial formality thresholds for Heisenberg-type models")
def test_ac04_formality_degrees():
    for n in range(1, 5):
        rep = formality_report(heisenberg(n), n)
        assert rep.verdict(n - 1) == FORMAL
        assert rep.verdict(n) == NOT_FORMAL
    for (m, n) in ((1, 3), (2, 5), (2, 6), (3, 7)):
        rep = formality_report(heisenberg_type(m, n), m)
        assert rep.verdict(m - 1) == FORMAL
        assert rep.verdict(m) == NOT_FORMAL


@criterion(5, "resonance of tensor products splits degreewise over factors")
def test_ac05_kunneth_resonance():
    pairs = [
        (heisenberg(2), free_abelian(["t"])),
        (heisenberg(1), heisenberg(1)),
    ]
    rng = random.Random(2026)
    checked = 0
    for ca, cb in pairs:
        ra = from_cdga(ca, 4)
        rb = from_cdga(cb, 4)
        rab = from_cdga(tensor(ca, cb), 4)
        for _ in range(50):
            w_a = tuple(Fraction(rng.randint(-2, 2)) for _ in range(ra.dim(1)))
            w_b = tuple(Fraction(rng.randint(-2, 2)) for _ in range(rb.dim(1)))
            w = combined_point(rab, ra, rb, w_a, w_b)
            for q in range(4):
                assert kunneth_membership(ra, rb, w_a, w_b, q) == in_resonance(
                    rab, w, q
                )
                total = sum(
                    mu_complex_dim(ra, w_a, i) * mu_complex_dim(rb, w_b, q - i)
                    for i in range(q + 1)
                )
                assert mu_complex_dim(rab, w, q) == total
            checked += 1
    assert checked == 100


@criterion(6, "two-step example: H^2 gap of dimension 1 and trivial resonance")
def test_ac06_initial_example():
    r = from_cdga(example_initial(), 2)
    assert r.dim(2) == 9
    products = Echelon()
    for i in range(r.dim(1)):
        for j in range(r.dim(1)):
            products.add(r.multiply_coords(1, {i: Fraction(1)}, 1, {j: Fraction(1)}))
    assert products.rank == 8
    v = generated_in_degree_one_upto(r, 2)
    assert not v.generated
    assert v.failure_degree == 2 and v.cokernel_dim == 1

    subspace = characteristic_subspace(r)
    assert subspace.dim == 2
    system = r11_quadric_system(subspace)
    assert system.monomials == ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4))
    assert system.forms == (
        {(0, 1): Fraction(-2)},
        {(1, 1): Fraction(-2)},
        {(0, 0): Fraction(2)},
    )
    # up to sign and ordering this is the displayed set 2c1^2, 2c1c2, 2c2^2
    patterns = sorted(
        (key, abs(c)) for form in system.forms for key, c in form.items()
    )
    assert patterns == [
        ((0, 0), Fraction(2)),
        ((0, 1), Fraction(2)),
        ((1, 1), Fraction(2)),
    ]
    assert decide_r11_trivial(r).kind == "trivial"


@criterion(7, "three-step pair is separated only by the chain-map search")
def test_ac07_contractible_example():
    b = example_contr("0")
    m = example_contr("y1*y2")
    for c in (b, m):
        for g in c.algebra.generators:
            assert c.d(c.d_generator(g.name)).is_zero()
    assert from_cdga(b, 2).dims() == [1, 5, 8]
    assert from_cdga(m, 2).dims() == [1, 5, 8]
    for c in (b, m):
        assert obstruction_generation(c, 1) is None
        assert obstruction_resonance(c, 1) is None

    closed = ["x1", "x2", "y1", "y2", "z"]
    constraints = {nm: nm for nm in closed}
    for nm in ("w1", "w2", "a"):
        constraints[nm] = MapTemplate("0", tuple([nm] + closed))
    res = dga_map_solve(b, m, constraints, nonzero=[("a", "a")])
    assert res.status == "unsatisfiable"
    assert res.unknowns == 18
    assert res.certificate is not None


@criterion(8, "random 2-step extensions: formality, top class, duality")
def test_ac08_twostep_property_suite():
    rng = random.Random(77)
    for trial in range(50):
        n = rng.randint(2, 4)
        base = [f"e{i}" for i in range(1, n + 1)]
        pairs = [
            f"e{i}*e{j}"
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        ]
        extensions = []
        for t in range(rng.randint(0, 2)):
            chosen = [p for p in pairs if rng.random() < 0.4]
            extensions.append((f"c{t}", "+".join(chosen) if chosen else "0"))
        c = central_extension(base, extensions)
        top = n + len(extensions)
        zero_d = all(v.is_zero() for v in c.differential().values())
        assert (full_formality(c) == OVERALL_FORMAL) == zero_d
        dims = from_cdga(c, top).dims()
        assert dims[top] == 1
        assert dims == dims[::-1]
        if not zero_d:
            v = generated_in_degree_one_upto(from_cdga(c, top), top)
            assert not v.generated
            assert v.failure_degree <= top


@criterion(9, "tower growth for the small model, stabilization for the large")
def test_ac09_bigraded_towers():
    t1 = bigraded_tower(from_cdga(heisenberg(1), 2), stage_cap=3)
    assert t1.stage_dims[:3] == [2, 1, 2]
    assert len(t1.stage_dims) >= 4
    cumulative = list(itertools.accumulate(t1.stage_dims[:4]))
    assert all(a < b for a, b in zip(cumulative, cumulative[1:]))
    t2 = bigraded_tower(from_cdga(heisenberg(2), 2), stage_cap=5)
    assert t2.stabilized
    assert t2.total_dim == 5


@criterion(10, "vanishing-top upgrade fires exactly when it should")
def test_ac10_prop_k2_rule():
    ab2 = free_abelian(["e1", "e2"])
    rep = FormalityReport(3)
    cert = certify_prop_art(ab2, 1)
    assert cert is not None and cert.k == 1
    rep.mark_formal_upto(cert)
    fired = infer_prop_k2(rep, from_cdga(ab2, 2), 1)
    assert fired is not None and fired.rule == "prop-k+2"
    assert rep.overall == OVERALL_FORMAL
    assert rep.verdicts() == [FORMAL] * 4

    h2 = heisenberg(2)
    rep2 = FormalityReport(2)
    cert2 = certify_prop_art(h2, 1)
    assert cert2 is not None and cert2.k == 1
    rep2.mark_formal_upto(cert2)
    assert infer_prop_k2(rep2, from_cdga(h2, 5), 1) is None
    assert rep2.overall == INCONCLUSIVE


@criterion(11, "symplectic multiplication has no kernel below the middle")
def test_ac11_lefschetz_corank():
    for n in range(1, 6):
        for i in range(0, n):
            assert lefschetz_corank(n, i) == 0


@criterion(12, "CLI output is byte-identical across repeated seeded runs")
def test_ac12_cli_determinism():
    commands = [
        ["cohomology", "--preset", "heisenberg:2", "--max-degree", "4", "--format", "json"],
        ["cohomology", "--preset", "heisenberg:1"],
        ["resonance", "--preset", "heisenberg:1", "--q", "1", "--decide", "--seed", "9", "--format", "json"],
        ["resonance", "--preset", "heisenberg:2", "--q", "2", "--decide", "--seed", "4"],
        ["formality", "--preset", "heisenberg:2", "--k-max", "2", "--seed", "9", "--format", "json"],
        ["preset", "list", "--format", "json"],
    ]
    # the child imports nilform from the same checkout as this process
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for cmd in commands:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "nilform.cli", *cmd],
                capture_output=True,
                env=env,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert outs[0]
