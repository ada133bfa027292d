"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain specs (names,
strings, integer tuples), so a model can be rebuilt as a fresh object right
before it is timed and no cache carries between timed calls.
"""

from __future__ import annotations

import random
from fractions import Fraction

from nilform.catalog import central_extension, example_contr, heisenberg, heisenberg_type
from nilform.cdga import CDGA
from nilform.formality import is_twostep
from nilform.linalg import Span

CONTR_BASE = ("x1", "x2", "y1", "y2", "z")

# AC07: the pair that only the chain-map search separates, at k = 1
AC07_PAIR = ("0", "y1*y2")

# AC04: Heisenberg and Heisenberg-type models with known thresholds
AC04_MODELS = (
    ("heisenberg", (1,)),
    ("heisenberg", (2,)),
    ("heisenberg", (3,)),
    ("heisenberg", (4,)),
    ("heisenberg_type", (1, 3)),
    ("heisenberg_type", (2, 5)),
    ("heisenberg_type", (2, 6)),
    ("heisenberg_type", (3, 7)),
)


def nonzero_point(rng: random.Random, dim: int, lo: int = -3, hi: int = 3) -> tuple[Fraction, ...]:
    """Integer point of Q^dim with entries in lo..hi, never the origin."""
    while True:
        point = tuple(Fraction(rng.randint(lo, hi)) for _ in range(dim))
        if any(point):
            return point


def contr_form(rng: random.Random) -> str:
    """Random integer 2-form over x1, x2, y1, y2, z for ``example_contr(p)``."""
    terms = []
    for i, a in enumerate(CONTR_BASE):
        for b in CONTR_BASE[i + 1 :]:
            if rng.random() < 0.3:
                terms.append(f"{rng.choice((-2, -1, 1, 2))}*{a}*{b}")
    return " + ".join(terms) if terms else "0"


def _new_classes(rng: random.Random, c: CDGA, count: int, basis_range: range) -> list[str]:
    """``count`` closed 2-forms independent modulo exact forms, as strings.

    Each is a sparse combination of the kernel basis of d on 2-forms; the
    ones whose coordinates fall in ``basis_range`` of the 2-form basis are
    preferred so the caller can force terms through newer generators.
    """
    alg = c.algebra
    closed = c.differential_matrix(2).kernel()
    picks = [v for v in closed if any(j in basis_range for j in v)] or closed
    # starts as the exact forms, so a pick must be new modulo them
    chosen = Span(alg.dim(2), c.differential_matrix(1).cols)
    out = []
    for _ in range(50 * count):
        if len(out) == count:
            break
        vec: dict[int, Fraction] = {}
        for base in rng.sample(picks, min(len(picks), rng.randint(1, 3))):
            c0 = Fraction(rng.choice((-2, -1, 1, 2)))
            for j, v in base.items():
                vec[j] = vec.get(j, Fraction(0)) + c0 * v
        vec = {j: v for j, v in vec.items() if v}
        if vec and chosen.add(vec):
            out.append(str(alg.from_coordinates(2, [vec.get(j, 0) for j in range(alg.dim(2))])))
    if len(out) != count:
        raise RuntimeError("no independent closed 2-forms left to transgress")
    return out


def tower_spec(rng: random.Random) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Seeded 3-step tower: base e1..e4, then u1, u2, then v1.

    Returns ``(base, central)`` for ``catalog.central_extension``.  Every
    new generator transgresses a non-exact closed 2-form; the third step is
    drawn until the model is not 2-step.  The shape is fixed so that the
    towers of different seeds cost about the same.
    """
    base = ("e1", "e2", "e3", "e4")
    for _ in range(100):
        c = central_extension(list(base), [])
        first = [(f"u{i + 1}", f) for i, f in enumerate(_new_classes(rng, c, 2, range(0)))]
        c = central_extension(list(base), first)
        # 2-forms touching a step-one generator sit after the base-only ones
        first_new = c.algebra.basis_index(2)[(0, len(base))]
        top = range(first_new, c.algebra.dim(2))
        second = [("v1", f) for f in _new_classes(rng, c, 1, top)]
        central = tuple(first + second)
        if not is_twostep(central_extension(list(base), list(central))):
            return base, central
    raise RuntimeError("could not draw a 3-step tower")


def build_model(spec: tuple) -> CDGA:
    """Fresh CDGA from a formality-mix spec."""
    kind, args = spec
    if kind == "contr":
        return example_contr(args)
    if kind == "tower":
        base, central = args
        return central_extension(list(base), list(central))
    if kind == "heisenberg":
        return heisenberg(*args)
    if kind == "heisenberg_type":
        return heisenberg_type(*args)
    raise ValueError(f"unknown model kind {kind!r}")


def formality_specs(rng: random.Random, contr: int, towers: int) -> list[tuple]:
    """The formality-mix model set: contr forms, 3-step towers, AC04 models."""
    specs = [("contr", p) for p in AC07_PAIR]
    specs += [("contr", contr_form(rng)) for _ in range(contr)]
    specs += [("tower", tower_spec(rng)) for _ in range(towers)]
    specs += list(AC04_MODELS)
    return specs
