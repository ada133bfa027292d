"""Command-line front end: cohomology tables, resonance queries, formality.

Input models come either from a JSON document or from a named preset.  All
reports are available as fixed-width ASCII tables (default) or as
deterministic JSON with rational numbers serialized as strings.

Each command imports the layers it runs when it runs, so ``cohomology`` and
``preset list`` load no resonance or formality code.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .catalog import PRESETS, parse_preset
from .cdga import CDGA
from .gca import Algebra, Generator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_BOUND = 3


class _Parser(argparse.ArgumentParser):
    """Parser that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class InputError(ValueError):
    """The input document or a query argument is invalid."""


# -- input handling -------------------------------------------------------


def _cdga_from_document(doc) -> CDGA:
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    gens_spec = doc.get("generators")
    if not isinstance(gens_spec, list) or not gens_spec:
        raise InputError("'generators' must be a non-empty list")
    gens = []
    for item in gens_spec:
        if not isinstance(item, dict) or "name" not in item or "degree" not in item:
            raise InputError("each generator needs 'name' and 'degree'")
        name = item["name"]
        degree = item["degree"]
        if not isinstance(name, str) or not name:
            raise InputError("generator names must be non-empty strings")
        # a JSON true is a bool, and bool is a subclass of int
        if type(degree) is not int or degree < 1:
            raise InputError(f"generator {name!r} needs a positive integer degree")
        gens.append(Generator(name, degree))
    alg = Algebra(gens)
    spec = doc.get("differential", [])
    if not isinstance(spec, list):
        raise InputError("'differential' must be a list")
    differential = {}
    for item in spec:
        # a name that is not a string would reach the algebra's name lookup, and
        # a missing value would read as d = 0
        named = isinstance(item, dict) and isinstance(item.get("generator"), str)
        if not named or "value" not in item:
            raise InputError("each differential entry needs a 'generator' name and a 'value'")
        gname = item["generator"]
        alg.index_of(gname)
        value = item["value"]
        if not isinstance(value, list):
            raise InputError(f"'value' of {gname!r} must be a list of terms")
        total = alg.zero()
        for term in value:
            if not isinstance(term, dict) or "coeff" not in term or "monomial" not in term:
                raise InputError("each term needs 'coeff' and 'monomial'")
            try:
                coeff = Fraction(str(term["coeff"]))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad rational {term['coeff']!r}: {exc}") from None
            names = term["monomial"]
            if not isinstance(names, list) or not all(isinstance(nm, str) for nm in names):
                raise InputError("'monomial' must be a list of generator names")
            part = alg.one()
            for nm in names:
                part = part * alg.gen(nm)
            total = total + part.scale(coeff)
        if gname in differential:
            raise InputError(f"duplicate differential entry for {gname!r}")
        differential[gname] = total
    return CDGA(alg, differential)


def _load_model(args) -> tuple[CDGA, dict]:
    """Build the model and an input echo from --input or --preset."""
    if args.preset is not None:
        return parse_preset(args.preset), {"preset": args.preset}
    with open(args.input, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return _cdga_from_document(doc), {"file": args.input}


def _echo_model(c: CDGA, origin: dict) -> dict:
    gens = [{"name": g.name, "degree": g.degree} for g in c.algebra.generators]
    differential = []
    for name, v in c.differential().items():
        terms = [
            {
                "coeff": str(coeff),
                "monomial": [c.algebra.generators[i].name for i in mono],
            }
            for mono, coeff in sorted(v.terms.items())
        ]
        differential.append({"generator": name, "value": terms})
    return dict(origin, generators=gens, differential=differential)


# -- rendering ------------------------------------------------------------


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _emit(doc: dict, section_text: str, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(section_text + "\n")


def _point_expression(labels: list[str], coords) -> str:
    chunks = []
    for lab, c in zip(labels, coords):
        c = Fraction(c)
        if not c:
            continue
        if c == 1:
            chunks.append(lab)
        else:
            chunks.append(f"{c}*{lab}")
    return " + ".join(chunks) if chunks else "0"


def _document(command: str, echo: dict, options: dict, section: dict) -> dict:
    return {
        "tool": {"name": "nilform", "version": __version__},
        "command": command,
        "input": echo,
        "options": options,
        command: section,
    }


# -- commands -------------------------------------------------------------


def _cmd_cohomology(args) -> int:
    from .ring import from_cdga

    c, origin = _load_model(args)
    echo = _echo_model(c, origin)
    max_degree = args.max_degree
    if max_degree is None:
        top = c.algebra.top_degree()
        if top is None:
            raise InputError(
                "--max-degree is required when the algebra has even generators"
            )
        max_degree = max(top, 1)
    r = from_cdga(c, max_degree)
    betti = r.dims()
    classes = [list(r.labels(q)) for q in range(max_degree + 1)]
    section = {
        "max_degree": max_degree,
        "betti": betti,
        "classes": classes,
    }
    doc = _document("cohomology", echo, {"max_degree": max_degree}, section)
    rows = [
        [str(q), str(betti[q]), ", ".join(classes[q])]
        for q in range(max_degree + 1)
    ]
    text = _render_table(["degree", "dim", "classes"], rows)
    text += "\nbetti: " + ",".join(str(b) for b in betti)
    _emit(doc, text, args.format)
    return EXIT_OK


def _cmd_resonance(args) -> int:
    from .resonance import (
        decide_r11_trivial,
        find_resonance_point,
        mu_complex_dim,
        point_from_expression,
    )
    from .ring import class_symbol_algebra, from_cdga

    if args.q < 0:
        raise InputError("--q must be nonnegative")
    if args.k < 1:
        raise InputError("--k must be at least 1")
    c, origin = _load_model(args)
    echo = _echo_model(c, origin)
    r = from_cdga(c, max(2, args.q + 1))
    # points are parsed and printed in the class symbols; a symbol that is not
    # its class's representative is listed with it
    symbols = [g.name for g in class_symbol_algebra(c).generators]
    labels = [s if s == rep else f"{s} = {rep}" for s, rep in zip(symbols, r.labels(1))]
    section: dict = {"q": args.q, "k": args.k, "b1": r.dim(1), "labels": labels}
    lines = [f"resonance variety: degree q={args.q}, depth k={args.k}"]
    lines.append(f"degree-1 classes: {', '.join(labels) if labels else '(none)'}")

    if args.point is not None:
        w = point_from_expression(r, args.point)
        dim = mu_complex_dim(r, w, args.q)
        member = dim >= args.k
        section["point"] = {
            "expression": args.point,
            "coordinates": [str(x) for x in w],
            "dimension": dim,
            "member": member,
        }
        lines.append(
            f"point {args.point}: complex dimension {dim}, "
            f"member={'true' if member else 'false'}"
        )

    if args.decide:
        if args.q == 1 and args.k == 1:
            verdict = decide_r11_trivial(c, seed=args.seed)
            name = {
                "trivial": "CertifiedTrivial",
                "witness": "Witness",
                "inconclusive": "Inconclusive",
            }[verdict.kind]
            decision: dict = {
                "verdict": name,
                "detail": verdict.detail,
                "nontrivial_certified": verdict.nontrivial_certified,
            }
            if verdict.witness is not None:
                expr = _point_expression(symbols, verdict.witness.point)
                decision["witness"] = {
                    "point": [str(x) for x in verdict.witness.point],
                    "expression": expr,
                }
                lines.append(f"decision: {name} {expr}")
            else:
                lines.append(f"decision: {name} ({verdict.detail})")
            section["decision"] = decision
        else:
            notice = (
                "exact decision covers q=1, k=1 only; sampling for a witness instead"
            )
            point = find_resonance_point(r, args.q, args.k, seed=args.seed)
            decision = {"notice": notice}
            if point is not None:
                expr = _point_expression(symbols, point)
                decision["verdict"] = "SampledWitness"
                decision["witness"] = {
                    "point": [str(x) for x in point],
                    "expression": expr,
                }
                lines.append(f"decision: SampledWitness {expr} ({notice})")
            else:
                decision["verdict"] = "Inconclusive"
                lines.append(f"decision: Inconclusive ({notice})")
            section["decision"] = decision

    doc = _document(
        "resonance",
        echo,
        {"q": args.q, "k": args.k, "seed": args.seed},
        section,
    )
    _emit(doc, "\n".join(lines), args.format)
    return EXIT_OK


def _cmd_formality(args) -> int:
    from .formality import decomposition_from_names, formality_report

    if args.k_max < 0:
        raise InputError("--k-max must be nonnegative")
    c, origin = _load_model(args)
    echo = _echo_model(c, origin)
    dec = None
    if args.complement:
        names = [s.strip() for s in args.complement.split(",") if s.strip()]
        dec = decomposition_from_names(c, names)
    report = formality_report(c, args.k_max, seed=args.seed, decomposition=dec)
    section = {
        "k_max": args.k_max,
        "overall": report.overall,
        "verdicts": [
            {"k": k, "verdict": v} for k, v in enumerate(report.verdicts())
        ],
        "evidence": [
            {
                "rule": ev.rule,
                "k": ev.k,
                "kind": ev.kind,
                "detail": ev.detail,
                "data": ev.data,
            }
            for ev in report.evidence
        ],
        "bound_exceeded": report.bound_exceeded,
    }
    doc = _document(
        "formality",
        echo,
        {"k_max": args.k_max, "seed": args.seed, "complement": args.complement},
        section,
    )
    rows = [[str(k), v] for k, v in enumerate(report.verdicts())]
    text = _render_table(["k", "verdict"], rows)
    text += f"\noverall: {report.overall}"
    text += "\nevidence:"
    for ev in report.evidence:
        text += f"\n  [{ev.rule}] k={ev.k} {ev.kind}: {ev.detail}"
    if report.bound_exceeded:
        text += "\nnote: an elimination or stage bound was exceeded"
    _emit(doc, text, args.format)
    if report.bound_exceeded and args.strict:
        return EXIT_BOUND
    return EXIT_OK


def _cmd_preset(args) -> int:
    entries = [
        {"name": name, "usage": PRESETS[name]} for name in sorted(PRESETS)
    ]
    doc = {
        "tool": {"name": "nilform", "version": __version__},
        "command": "preset list",
        "presets": entries,
    }
    rows = [[e["name"], e["usage"]] for e in entries]
    _emit(doc, _render_table(["preset", "usage"], rows), args.format)
    return EXIT_OK


# -- wiring ---------------------------------------------------------------


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", metavar="FILE", help="JSON model document")
    group.add_argument(
        "--preset",
        metavar="NAME:ARGS",
        help="named model, e.g. heisenberg:2 (see 'preset list')",
    )


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output style (default table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nilform",
        description=(
            "Exact cohomology, resonance varieties, and partial formality "
            "for degree-1-generated minimal models"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"nilform {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coh = sub.add_parser("cohomology", help="Betti numbers and class labels")
    _add_input_flags(p_coh)
    p_coh.add_argument(
        "--max-degree",
        type=int,
        default=None,
        metavar="N",
        help="truncation degree (default: top degree of the algebra)",
    )
    _add_format_flag(p_coh)
    p_coh.set_defaults(func=_cmd_cohomology)

    p_res = sub.add_parser("resonance", help="resonance variety queries")
    _add_input_flags(p_res)
    p_res.add_argument("--q", type=int, default=1, metavar="N", help="degree (default 1)")
    p_res.add_argument("--k", type=int, default=1, metavar="N", help="depth (default 1)")
    p_res.add_argument(
        "--point",
        metavar="EXPR",
        help="membership test at a degree-1 point like 'x1 + 2*y1'",
    )
    p_res.add_argument(
        "--decide",
        action="store_true",
        help="decide triviality (exact for q=1, k=1; sampling otherwise)",
    )
    p_res.add_argument("--seed", type=int, default=0, metavar="N")
    _add_format_flag(p_res)
    p_res.set_defaults(func=_cmd_resonance)

    p_for = sub.add_parser("formality", help="partial formality verdicts")
    _add_input_flags(p_for)
    p_for.add_argument(
        "--k-max", type=int, default=2, metavar="N", help="largest degree to decide"
    )
    p_for.add_argument("--seed", type=int, default=0, metavar="N")
    p_for.add_argument(
        "--complement",
        metavar="g1,g2,...",
        help="generators spanning a complement of the closed degree-1 part",
    )
    p_for.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 when an elimination or stage bound is exceeded",
    )
    _add_format_flag(p_for)
    p_for.set_defaults(func=_cmd_formality)

    p_pre = sub.add_parser("preset", help="preset catalog")
    p_pre.add_argument("action", choices=["list"])
    _add_format_flag(p_pre)
    p_pre.set_defaults(func=_cmd_preset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
