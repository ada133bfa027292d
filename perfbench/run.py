"""Benchmark of the nilform engine, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``workloads.WORKLOADS``.  The program is imported
from ``src/`` next to this directory.  With ``--trace 0`` the run measures
the end-to-end metrics; with ``--trace 1`` it repeats the same units with
every layer's public calls wrapped in spans and reports per-layer numbers.
Every output is checked outside the timed region.  A readable table goes
first, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed
import stats
import tracer
from workloads import WORKLOADS, Unit, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_ROUNDS = 2

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("light_ms", "ms", "lower", 0.2),
    ("heavy_ms", "ms", "lower", 0.2),
)

_RATIO_COUNTS = ("linalg.rank_rows_calls", "linalg.fastpath_hits")
# name, unit, better
PER_LAYER = tuple(
    [(f"{s}_s", "s/round", "lower") for s in tracer.SPANS]
    + [(f"{s}_self_s", "s/round", "lower") for s in tracer.SPANS]
    + [(c, "count/round", "lower") for c in tracer.COUNTS if c not in _RATIO_COUNTS]
    + [
        ("linalg.fastpath_ratio", "ratio", "higher"),
        ("cli.import_s", "s", "lower"),
        ("cli.sympy_import_s", "s", "lower"),
        ("trace.overhead_s", "s/round", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
)


@dataclass
class Record:
    unit: Unit
    latency: float  # wall seconds
    scale: float  # speed.scale around the call
    output: object
    ok: bool
    error: str | None = None

    @property
    def ref_latency(self) -> float:
        """Latency in reference seconds (see speed.py)."""
        return self.latency * self.scale


def load_program() -> None:
    """Put ``src/`` first on the path and make sure nilform comes from there."""
    src = ROOT / "src"
    if not (src / "nilform" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src / 'nilform'}")
    sys.path.insert(0, str(src))
    import nilform

    if Path(nilform.__file__).resolve().parent != (src / "nilform").resolve():
        raise SystemExit(f"perfbench: nilform imported from {nilform.__file__}, not {src}")


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Start to ready of fresh processes: interpreter, imports, inputs, warm-up.

    Returns (wall seconds, reference seconds) per process.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup of {workload} failed (exit {proc.returncode})")
        samples.append((elapsed, elapsed * speed.scale([before, speed.probe()])))
    return samples


def run_window(
    wl: Workload,
    seconds: float | None = None,
    rounds: int | None = None,
    tr: tracer.Tracer | None = None,
    sample: bool = True,
) -> tuple[list[Record], int]:
    """Whole rounds until ``seconds`` passed (at least MIN_ROUNDS) or ``rounds`` ran.

    With ``sample`` the speed probes also run during long calls.
    A traced run turns it off, because a probe inside a span would count as
    the span's time.
    """
    records: list[Record] = []
    t0 = time.perf_counter()
    r = 0
    while True:
        if rounds is not None:
            if r >= rounds:
                break
        elif r >= MIN_ROUNDS and time.perf_counter() - t0 >= seconds:
            break
        gc.collect()
        for unit in wl.round(r):
            arg = wl.prepare(unit)
            error = None
            before = speed.probe()
            sampler = speed.Sampler() if sample else None
            if tr is not None:
                tr.run_id += 1
                tr.active = True
            start = time.perf_counter()
            try:
                if sampler is not None:
                    with sampler:
                        output, aux = wl.execute(arg)
                else:
                    output, aux = wl.execute(arg)
            except Exception as exc:  # a failed call is counted, not fatal
                output, aux, error = None, None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            if tr is not None:
                tr.active = False
            probes = [before, speed.probe()]
            if sampler is not None:
                if wl.in_process:
                    latency -= sampler.stolen
                probes += sampler.probes
            factor = speed.scale(probes)
            ok = error is None
            if ok:
                try:
                    ok = bool(wl.verify(unit, output, aux))
                except Exception as exc:
                    ok, error = False, f"check raised {type(exc).__name__}: {exc}"
            records.append(Record(unit, latency, factor, output, ok, error))
        r += 1
    # equal inputs must give equal outputs, across rounds
    first: dict[tuple, object] = {}
    for rec in records:
        if rec.error is None:
            ref = first.setdefault(rec.unit.key, rec.output)
            if rec.output != ref:
                rec.ok, rec.error = False, "output differs from an earlier identical call"
    return records, r


def end_to_end(wl: Workload, records: list[Record], setup: list[tuple[float, float]], rss_kb: int):
    """Metrics in reference seconds; the table also shows the raw wall times."""
    metrics = {
        "setup_s": stats.median([ref for _, ref in setup]),
        "peak_rss_mb": rss_kb / 1024,
        "light_ms": stats.typical((r.unit.key, r.ref_latency) for r in records if r.unit.cls == "light") * 1e3,
        "heavy_ms": stats.typical((r.unit.key, r.ref_latency) for r in records if r.unit.cls == "heavy") * 1e3,
    }
    wall_setup = stats.median([wall for wall, _ in setup])
    rows = [
        ("setup_s", metrics["setup_s"], "s", f"median of {len(setup)} fresh processes; wall {wall_setup:.4g}"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", ""),
        ("light_ms", metrics["light_ms"], "ms", "geometric mean of per-input medians"),
        ("heavy_ms", metrics["heavy_ms"], "ms", "geometric mean of per-input medians"),
    ]

    def percentiles(name, unit, scale, recs):
        n = len(recs)
        p = stats.supported_percentile(n)
        for q in sorted({50, p or 50}):
            ref = stats.percentile([r.ref_latency for r in recs], q) * scale
            wall = stats.percentile([r.latency for r in recs], q) * scale
            rows.append((name.replace("_p50", f"_p{q}"), ref, unit, f"n={n}; wall {wall:.4g}"))

    for (name, unit, scale), cls in ((wl.heavy_label, "heavy"), (wl.light_label, "light")):
        recs = [r for r in records if r.unit.cls == cls]
        if "_p50" in name:
            percentiles(name, unit, scale, recs)
        else:
            ref = stats.median([r.ref_latency for r in recs]) * scale
            wall = stats.median([r.latency for r in recs]) * scale
            rows.append((name, ref, unit, f"median, n={len(recs)}; wall {wall:.4g}"))
    if wl.pooled_label:
        rate, prefix = wl.pooled_label
        wall = len(records) / sum(r.latency for r in records)
        ref = len(records) / sum(r.ref_latency for r in records)
        rows.append((rate, ref, "1/s", f"n={len(records)}; wall {wall:.4g}"))
        if prefix:
            percentiles(f"{prefix}_p50_ms", "ms", 1e3, records)
    return metrics, rows + wl.extra_rows(records)


def per_layer(wl: Workload, tr: tracer.Tracer, rounds: int, plain: list[Record], traced: list[Record]):
    summary = tracer.tracer_summary(tr)
    counts = dict(tr.counts)
    for child in getattr(wl, "child_summaries", []):
        tracer.merge_summary(summary, child["summary"])
        for key, v in child["counts"].items():
            counts[key] = counts.get(key, 0) + v
    metrics: dict[str, float] = {}
    for span in tracer.SPANS:
        incl, self_ns, _ = summary.get(span, (0, 0, 0))
        metrics[f"{span}_s"] = incl / 1e9 / rounds
        metrics[f"{span}_self_s"] = self_ns / 1e9 / rounds
    for name in tracer.COUNTS:
        if name not in _RATIO_COUNTS:
            metrics[name] = counts.get(name, 0) / rounds
    calls = counts.get("linalg.rank_rows_calls", 0)
    metrics["linalg.fastpath_ratio"] = counts.get("linalg.fastpath_hits", 0) / calls if calls else 0.0
    imports = getattr(wl, "import_s", [])
    sympy_imports = getattr(wl, "sympy_import_s", [])
    metrics["cli.import_s"] = stats.median(imports) if imports else 0.0
    metrics["cli.sympy_import_s"] = stats.median(sympy_imports) if sympy_imports else 0.0
    # reference seconds, so a drift of the machine between the passes cancels
    plain_ref = sum(r.ref_latency for r in plain)
    traced_ref = sum(r.ref_latency for r in traced)
    metrics["trace.overhead_s"] = (traced_ref - plain_ref) / rounds
    metrics["trace.overhead_share"] = traced_ref / plain_ref - 1
    rows = [(name, metrics[name], unit, "") for name, unit, _ in PER_LAYER]
    for label, recs in (("untraced", plain), ("traced", traced)):
        wall = sum(r.latency for r in recs)
        ref = sum(r.ref_latency for r in recs)
        rows.append((f"{label}_s", ref, "s", f"{rounds} rounds; wall {wall:.4g}"))
    return metrics, rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    load_program()
    wl = WORKLOADS[args.workload](ROOT, args.seed)
    wl.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    gc.collect()
    gc.freeze()
    if not args.trace:
        records, rounds = run_window(wl, seconds=args.seconds)
        metrics, rows = end_to_end(wl, records, setup, wl.peak_rss_kb())
        units = {name: unit for name, unit, _, _ in END_TO_END}
    else:
        plain, rounds = run_window(wl, seconds=args.seconds / 2, sample=False)
        tr = tracer.Tracer()
        tr.active = False
        restore = tracer.install(tr)
        wl.traced = True
        try:
            traced, _ = run_window(wl, rounds=rounds, tr=tr, sample=False)
        finally:
            restore()
            wl.traced = False
        for a, b in zip(plain, traced):
            if a.output != b.output:
                b.ok, b.error = False, "traced output differs from the untraced run"
        metrics, rows = per_layer(wl, tr, rounds, plain, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
        tr.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        records = plain + traced

    failed = sum(1 for r in records if not r.ok)
    rows.append(("failure_ratio", failed / len(records), "ratio", f"{failed}/{len(records)}"))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={rounds} units={len(records)}")
    for name, value, unit, note in rows:
        print(f"  {name:34s} {value:14.6g} {unit:12s} {note}")
    errors = sorted({r.error for r in records if r.error})
    for err in errors[:5]:
        print(f"  error: {err}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    samples = [
        {"cls": r.unit.cls, "key": repr(r.unit.key), "wall_s": r.latency, "scale": r.scale, "ok": r.ok}
        for r in records
    ]
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "samples": samples}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
