"""The benchmark workloads.

A workload is a fixed cycle of units (a *round*), each unit one call of
the program that the benchmark times.  ``prepare`` builds a unit's fresh
inputs before the clock starts, ``execute`` is the timed call, and
``verify`` checks its output after the clock stops.  Every unit belongs to
a ``light`` or a ``heavy`` class; the end-to-end medians are per class.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import stats


@dataclass(frozen=True)
class Unit:
    cls: str  # "light" | "heavy"
    key: tuple  # identifies the input; equal keys must give equal outputs
    payload: object = None


def heisenberg_betti(n: int, q: int) -> int:
    """Santharoubane's closed form for the rank-n Heisenberg group."""
    if q > n:
        q = 2 * n + 1 - q
    if q < 0:
        return 0
    return comb(2 * n, q) - (comb(2 * n, q - 2) if q >= 2 else 0)


class Workload:
    name = ""
    # labels of the per-class medians in the printed table: (name, unit, scale)
    light_label = ("light_p50", "ms", 1e3)
    heavy_label = ("heavy_p50", "ms", 1e3)
    # (rate name, prefix of pooled percentiles or None) over all units
    pooled_label: tuple[str, str | None] | None = None
    traced = False
    # calls run in this process, so probes during a call interrupt it and
    # their time is taken off; False for the CLI, whose child runs meanwhile
    in_process = True

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list[Unit]:
        raise NotImplementedError

    def prepare(self, unit: Unit):
        return unit.payload

    def execute(self, arg):
        raise NotImplementedError

    def verify(self, unit: Unit, output, aux) -> bool:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def extra_rows(self, records) -> list[tuple[str, float, str, str]]:
        """Workload-specific lines of the printed table."""
        return []


# -- cohomology-ladder ---------------------------------------------------


class Ladder(Workload):
    """Full cohomology tables of heisenberg(n): dims and labels in every degree."""

    name = "cohomology-ladder"
    light_label = ("ladder_small_s", "s", 1.0)
    heavy_label = ("ladder_s", "s", 1.0)
    FULL = (3, 4, 5, 6)
    SMALL = (3, 4)
    SMALL_PER_ROUND = 8
    REPS_PER_DEGREE = 2

    def setup(self) -> None:
        from nilform import ring
        from nilform.catalog import heisenberg, heisenberg_betti_oracle

        # module attributes are looked up per call, so a traced run sees them
        self.ring = ring
        self.heisenberg = heisenberg
        self.oracle = heisenberg_betti_oracle
        self.expected: dict[int, list[int]] = {}
        self.rng = random.Random(self.seed)
        self.table_s: dict[int, list[float]] = {}
        self.execute(self.prepare(Unit("light", self.SMALL, self.SMALL)))

    def round(self, r: int) -> list[Unit]:
        full = Unit("heavy", self.FULL, self.FULL)
        return [full] + [Unit("light", self.SMALL, self.SMALL)] * self.SMALL_PER_ROUND

    def prepare(self, unit):
        return [(n, self.heisenberg(n)) for n in unit.payload]

    def execute(self, models):
        rings, out = [], []
        for n, c in models:
            t0 = time.perf_counter()
            top = 2 * n + 1
            r = self.ring.from_cdga(c, top)
            out.append((n, tuple(r.dims()), tuple(r.labels(q) for q in range(top + 1))))
            rings.append((n, r))
            self.table_s.setdefault(n, []).append(time.perf_counter() - t0)
        return tuple(out), rings

    def extra_rows(self, records):
        return [
            (f"table_n{n}_s", stats.median(ts), "s", f"wall, median of {len(ts)}")
            for n, ts in sorted(self.table_s.items())
        ]

    def verify(self, unit, output, rings) -> bool:
        for n, dims, labels in output:
            if n not in self.expected:
                top = 2 * n + 1
                closed = [heisenberg_betti(n, q) for q in range(top + 1)]
                oracle = [self.oracle(n, q) for q in range(top + 1)]
                self.expected[n] = closed if closed == oracle else None
            if self.expected[n] is None or list(dims) != self.expected[n]:
                return False
            if [len(ls) for ls in labels] != list(dims):
                return False
        # a seeded sample of representatives: cocycles reducing to unit vectors
        for n, r in rings:
            for q in range(r.max_degree + 1):
                basis = r.basis(q)
                for i in self.rng.sample(range(basis.dim), min(self.REPS_PER_DEGREE, basis.dim)):
                    rep = r.representative(q, i)
                    if not r.source.is_cocycle(rep):
                        return False
                    unit_vec = [Fraction(int(j == i)) for j in range(basis.dim)]
                    if list(basis.reduction(rep)) != unit_vec:
                        return False
        return True


# -- resonance-sweep -----------------------------------------------------


class Sweep(Workload):
    """mu_complex_dim in every degree at seeded degree-1 points of fixed rings."""

    name = "resonance-sweep"
    light_label = ("tensor_point_p50_ms", "ms", 1e3)
    heavy_label = ("point_p50_ms", "ms", 1e3)
    pooled_label = ("sweep_points_per_s", None)
    N = 4
    HEAVY_PER_ROUND = 12
    LIGHT_PER_ROUND = 12
    POINTS = 96

    def setup(self) -> None:
        from nilform import resonance
        from nilform.catalog import free_abelian, heisenberg
        from nilform.cdga import tensor
        from nilform.ring import from_cdga

        import inputs

        self.resonance = resonance
        rng = random.Random(self.seed)
        self.hring = from_cdga(heisenberg(self.N), self.N + 1)
        self.pairs = []
        for ca, cb in ((heisenberg(2), free_abelian(["t"])), (heisenberg(1), heisenberg(1))):
            ra, rb = from_cdga(ca, 4), from_cdga(cb, 4)
            self.pairs.append((ra, rb, from_cdga(tensor(ca, cb), 4)))
        self.hpoints = [inputs.nonzero_point(rng, self.hring.dim(1)) for _ in range(self.POINTS)]
        self.tpoints = []
        for k, (ra, rb, rab) in enumerate(self.pairs):
            for _ in range(self.POINTS // 2):
                wa = inputs.nonzero_point(rng, ra.dim(1), -2, 2)
                wb = inputs.nonzero_point(rng, rb.dim(1), -2, 2)
                self.tpoints.append((k, wa, wb, combined_point(rab, ra, rb, wa, wb)))
        self.factor_dims: dict[tuple, tuple] = {}
        # one dense point per ring fills every cached structure constant
        for ring, qs in [(self.hring, range(self.N + 1))] + [(p[2], range(4)) for p in self.pairs]:
            ones = tuple(Fraction(1) for _ in range(ring.dim(1)))
            for q in qs:
                self.resonance.mu_complex_dim(ring, ones, q)

    def round(self, r: int) -> list[Unit]:
        units = []
        for j in range(self.HEAVY_PER_ROUND):
            i = (r * self.HEAVY_PER_ROUND + j) % len(self.hpoints)
            units.append(Unit("heavy", ("h", i), (self.hring, self.hpoints[i], self.N + 1)))
        for j in range(self.LIGHT_PER_ROUND):
            i = (r * self.LIGHT_PER_ROUND + j) % len(self.tpoints)
            k, _, _, w = self.tpoints[i]
            units.append(Unit("light", ("t", i), (self.pairs[k][2], w, 4)))
        return units

    def execute(self, arg):
        ring, w, degrees = arg
        return tuple(self.resonance.mu_complex_dim(ring, w, q) for q in range(degrees)), None

    def verify(self, unit, output, aux) -> bool:
        kind, i = unit.key
        if kind == "h":
            # heisenberg(n): non-resonant below n, resonant at n
            return all(d == 0 for d in output[: self.N]) and output[self.N] >= 1
        if i not in self.factor_dims:
            k, wa, wb, _ = self.tpoints[i]
            ra, rb, _ = self.pairs[k]
            self.factor_dims[i] = (
                [self.resonance.mu_complex_dim(ra, wa, q) for q in range(4)],
                [self.resonance.mu_complex_dim(rb, wb, q) for q in range(4)],
            )
        da, db = self.factor_dims[i]
        kunneth = [sum(da[j] * db[q - j] for j in range(q + 1)) for q in range(4)]
        return list(output) == kunneth


def combined_point(ring_ab, ring_a, ring_b, w_a, w_b):
    """Coordinates of (w_a, w_b) in the tensor ring, matched by class label."""
    values = {}
    for lab, c in zip(ring_a.labels(1), w_a):
        values[lab] = c
    for lab, c in zip(ring_b.labels(1), w_b):
        if lab in values:
            lab = lab + "'"
        values[lab] = c
    return tuple(values.get(lab, Fraction(0)) for lab in ring_ab.labels(1))


# -- formality-mix -------------------------------------------------------


class FormalityMix(Workload):
    """formality_report(c, 3) on fresh models: contr forms, 3-step towers, AC04.

    The towers are the light class; the contr models and the fixed AC04 set
    are the heavy class.
    """

    name = "formality-mix"
    light_label = ("tower_report_p50_ms", "ms", 1e3)
    heavy_label = ("contr_ac04_report_p50_ms", "ms", 1e3)
    pooled_label = ("reports_per_s", "report")
    K_MAX = 3
    CONTR = 38
    TOWERS = 128

    def setup(self) -> None:
        from nilform import formality
        from nilform.catalog import example_contr

        import inputs

        self.formality = formality
        self.build = inputs.build_model
        rng = random.Random(self.seed)
        self.specs = inputs.formality_specs(rng, self.CONTR, self.TOWERS)
        rng.shuffle(self.specs)
        # runs the degree-1 resonance decision, which imports sympy
        formality.formality_report(example_contr("0"), self.K_MAX)

    def round(self, r: int) -> list[Unit]:
        return [
            Unit("light" if spec[0] == "tower" else "heavy", (i,), spec)
            for i, spec in enumerate(self.specs)
        ]

    def prepare(self, unit):
        # sympy memoizes expressions process-wide; a repeated model must not
        # find its Groebner input cached from an earlier round
        from sympy.core.cache import clear_cache

        clear_cache()
        return self.build(unit.payload)

    def execute(self, c):
        rep = self.formality.formality_report(c, self.K_MAX)
        evidence = tuple((e.rule, e.k, e.kind, e.detail) for e in rep.evidence)
        return (tuple(rep.verdicts()), rep.overall, evidence), None

    def extra_rows(self, records):
        rows = []
        for name, spec in (
            ("report_heisenberg_4_ms", ("heisenberg", (4,))),
            ("report_contr_0_ms", ("contr", "0")),
            ("report_contr_y1y2_ms", ("contr", "y1*y2")),
        ):
            ts = [r.latency for r in records if r.unit.payload == spec]
            rows.append((name, stats.median(ts) * 1e3, "ms", f"wall, median of {len(ts)}"))
        return rows

    def verify(self, unit, output, aux) -> bool:
        f = self.formality
        verdicts, overall, evidence = output
        kind, args = unit.payload
        # a formal prefix, then inconclusive degrees, then a not-formal suffix
        order = {f.FORMAL: 0, f.INCONCLUSIVE: 1, f.NOT_FORMAL: 2}
        ranks = [order[v] for v in verdicts]
        if ranks != sorted(ranks) or verdicts[0] != f.FORMAL:
            return False
        for k, v in enumerate(verdicts):
            if v == f.FORMAL and not any(e[2] == "formal" and e[1] >= k for e in evidence):
                return False
            if v == f.NOT_FORMAL and not any(e[2] == "not_formal" and e[1] <= k for e in evidence):
                return False
        threshold = None
        if kind == "heisenberg":
            threshold = args[0]
        elif kind == "heisenberg_type":
            threshold = args[0]
        elif kind == "contr" and args == "0":
            return verdicts[1] == f.FORMAL
        elif kind == "contr" and args == "y1*y2":
            return verdicts[1] == f.NOT_FORMAL
        if threshold is not None:
            # (threshold-1)-formal but not threshold-formal
            if verdicts[threshold - 1] != f.FORMAL:
                return False
            if threshold <= self.K_MAX and verdicts[threshold] != f.NOT_FORMAL:
                return False
        return True


# -- cli-cold ------------------------------------------------------------

LIGHT_COMMANDS = (
    ("cohomology", "--preset", "heisenberg:4", "--format", "json"),
    ("resonance", "--preset", "heisenberg:3", "--q", "3", "--point", "x1 + 2*y2"),
    ("formality", "--preset", "heisenberg:3"),
)
HEAVY_COMMANDS = (
    ("resonance", "--preset", "heisenberg:2", "--q", "1", "--decide"),
    ("formality", "--preset", "example_contr:p=y1*y2", "--k-max", "3", "--format", "json"),
)


class CliCold(Workload):
    """The command mix, each invocation in a fresh interpreter."""

    name = "cli-cold"
    in_process = False
    light_label = ("cli_light_p50_s", "s", 1.0)
    heavy_label = ("cli_heavy_p50_s", "s", 1.0)

    def setup(self) -> None:
        self.env = dict(os.environ)
        src = str(self.root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.out_dir = self.root / ".perfbench_out"
        self.out_dir.mkdir(exist_ok=True)
        self.child_summaries: list[dict] = []
        self.import_s: list[float] = []
        self.sympy_import_s: list[float] = []
        self.run_cli(("preset", "list"))

    def round(self, r: int) -> list[Unit]:
        units = [Unit("light", cmd, cmd) for cmd in LIGHT_COMMANDS]
        units += [Unit("heavy", cmd, cmd) for cmd in HEAVY_COMMANDS]
        random.Random(self.seed * 7919 + r).shuffle(units)
        return units

    def run_cli(self, argv):
        """Run one command to completion; returns (exit code, stdout, stderr)."""
        cmd = [sys.executable, "-m", "nilform.cli", *argv]
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return proc.returncode, out, err

    def execute(self, argv):
        if not self.traced:
            code, out, _ = self.run_cli(argv)
            return (code, out), None
        spans = self.out_dir / f"cli-spans-{os.getpid()}.json"
        child = Path(__file__).with_name("cli_child.py")
        cmd = [sys.executable, "-X", "importtime", str(child), str(spans), *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=120)
        return (proc.returncode, proc.stdout), (proc.stderr, spans)

    def collect_child(self, aux) -> None:
        """Fold a traced child's spans and import times into the run totals."""
        err, spans = aux
        cumulative = {}
        for line in err.decode(errors="replace").splitlines():
            if line.startswith("import time:") and "|" in line:
                parts = line[len("import time:") :].split("|")
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e6
                except ValueError:
                    continue
        self.import_s.append(cumulative.get("nilform", 0.0) + cumulative.get("nilform.cli", 0.0))
        if "sympy" in cumulative:
            self.sympy_import_s.append(cumulative["sympy"])
        with open(spans) as fh:
            self.child_summaries.append(json.load(fh))
        spans.unlink()

    def verify(self, unit, output, aux) -> bool:
        if aux is not None:
            self.collect_child(aux)
        code, out = output
        if code != 0:
            return False
        text = out.decode()
        argv = unit.payload
        if argv[0] == "cohomology":
            betti = json.loads(text)["cohomology"]["betti"]
            return betti == [heisenberg_betti(4, q) for q in range(10)]
        if argv[0] == "resonance" and "--point" in argv:
            return "member=true" in text
        if argv[0] == "resonance":
            return "decision: CertifiedTrivial" in text
        if "--format" in argv:
            verdicts = [v["verdict"] for v in json.loads(text)["formality"]["verdicts"]]
            return verdicts[1] == "CertifiedNotKFormal" and verdicts[0] == "CertifiedKFormal"
        return all(f"{k}  CertifiedKFormal" in text for k in range(3))

    def peak_rss_kb(self) -> int:
        import resource

        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


WORKLOADS = {w.name: w for w in (Ladder, Sweep, FormalityMix, CliCold)}

