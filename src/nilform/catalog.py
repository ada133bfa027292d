"""Preset models and independent dimension oracles.

The builders return validated minimal CDGAs for standard families of
finitely generated torsion-free nilpotent groups.  The oracle functions
compute Heisenberg cohomology dimensions from plain exterior-algebra
multiplication ranks, with no differential involved, so they can check the
cochain engine from the outside.
"""

from __future__ import annotations

import re
from math import comb

from .cdga import CDGA, hirsch_extend, tensor
from .gca import Algebra, AlgebraError, DegreeError, Generator, Multivector
from .linalg import SparseMatrix, Vec


def free_abelian(names: list[str]) -> CDGA:
    """Zero-differential model on closed degree-1 generators."""
    return CDGA(Algebra([(n, 1) for n in names]))


def heisenberg(n: int) -> CDGA:
    """Minimal model of the 2n+1 dimensional Heisenberg group.

    Generators x1, y1, ..., xn, yn, z in degree 1 with the single relation
    d(z) = x1*y1 + ... + xn*yn.
    """
    if n < 1:
        raise ValueError(f"heisenberg needs n >= 1, got {n}")
    gens: list[tuple[str, int]] = []
    for i in range(1, n + 1):
        gens += [(f"x{i}", 1), (f"y{i}", 1)]
    gens.append(("z", 1))
    alg = Algebra(gens)
    dz = alg.zero()
    for i in range(1, n + 1):
        dz = dz + alg.gen(f"x{i}") * alg.gen(f"y{i}")
    return CDGA(alg, {"z": dz})


def heisenberg_type(m: int, n: int) -> CDGA:
    """Model of the product of the rank-m Heisenberg group with Z^(n-2m).

    First Betti number n; the toral factor contributes closed generators
    t{2m+1}, ..., t{n}.
    """
    if m < 1:
        raise ValueError(f"heisenberg_type needs m >= 1, got {m}")
    if n < 2 * m:
        raise ValueError(f"heisenberg_type needs n >= 2m, got m={m}, n={n}")
    core = heisenberg(m)
    extra = [f"t{i}" for i in range(2 * m + 1, n + 1)]
    if not extra:
        return core
    return tensor(core, free_abelian(extra))


def central_extension(
    base: list[str],
    central: list[tuple[str, str | Multivector]],
) -> CDGA:
    """Iterated degree-1 extension of an abelian base.

    Each step adjoins one generator whose differential is the given closed
    degree-2 form over the generators declared so far, so later forms may
    involve earlier central generators.
    """
    cur = free_abelian(list(base))
    for name, form in central:
        if isinstance(form, Multivector):
            form = str(form)
        expr = cur.algebra.parse(form)
        cur = hirsch_extend(cur, [(Generator(name, 1), expr)])
    return cur


def example_initial() -> CDGA:
    """Two-step model whose H^2 is not generated by H^1.

    Base x1, x2, y1, y2, z with d(w1) = x1*y1 + x2*z and
    d(w2) = x2*y2 + x1*z.
    """
    return central_extension(
        ["x1", "x2", "y1", "y2", "z"],
        [("w1", "x1*y1 + x2*z"), ("w2", "x2*y2 + x1*z")],
    )


_BASE_INDICES = frozenset(range(5))


def example_contr(p: str | Multivector = "0") -> CDGA:
    """Three-step tower over the two-step model above.

    Adds a degree-1 generator a with d(a) = x1*w1 + x2*w2 + p, where p is
    any 2-form over the base generators x1, x2, y1, y2, z only.
    """
    base = example_initial()
    if isinstance(p, Multivector):
        p = str(p)
    p_mv = base.algebra.parse(p)
    if not p_mv.is_zero():
        if p_mv.degree != 2:
            raise DegreeError(f"p must be a 2-form, got degree {p_mv.degree}")
        if any(set(m) - _BASE_INDICES for m in p_mv.terms):
            raise AlgebraError("p may only involve x1, x2, y1, y2, z")
    form = base.algebra.parse("x1*w1 + x2*w2") + p_mv
    return hirsch_extend(base, [(Generator("a", 1), form)])


# -- oracles ------------------------------------------------------------


def _symplectic_setup(n: int) -> tuple[Algebra, Multivector]:
    gens: list[tuple[str, int]] = []
    for i in range(1, n + 1):
        gens += [(f"x{i}", 1), (f"y{i}", 1)]
    alg = Algebra(gens)
    w = alg.zero()
    for i in range(1, n + 1):
        w = w + alg.gen(f"x{i}") * alg.gen(f"y{i}")
    return alg, w


def multiplication_matrix(alg: Algebra, w: Multivector, q: int) -> SparseMatrix:
    """Matrix of left multiplication by homogeneous w from basis(q)."""
    shift = w.degree
    target = alg.basis_index(q + shift)
    cols: list[Vec] = []
    for mono in alg.basis(q):
        img = w * alg.monomial(mono)
        cols.append({target[m]: c for m, c in img.terms.items()})
    return SparseMatrix(len(target), len(cols), cols)


def heisenberg_summands(n: int, q: int) -> tuple[int, int]:
    """Dimensions of the two pieces of H^q of the rank-n Heisenberg group.

    First the degree-q part of the quotient of the exterior algebra on
    x1, y1, ..., xn, yn by the ideal of the symplectic form, then the kernel
    of multiplication by that form one degree down.  Pure rank computation,
    independent of any differential.
    """
    if not 0 <= q <= 2 * n + 1:
        raise ValueError(f"degree {q} outside 0..{2 * n + 1}")
    alg, w = _symplectic_setup(n)
    quotient = comb(2 * n, q)
    if q >= 2:
        quotient -= multiplication_matrix(alg, w, q - 2).rank()
    zkernel = 0
    if q >= 1:
        zkernel = comb(2 * n, q - 1) - multiplication_matrix(alg, w, q - 1).rank()
    return quotient, zkernel


def heisenberg_betti_oracle(n: int, q: int) -> int:
    quotient, zkernel = heisenberg_summands(n, q)
    return quotient + zkernel


def lefschetz_corank(n: int, i: int) -> int:
    """Nullity of multiplication by the symplectic form on degree-i forms.

    Over 2n exterior generators the map lands in degree i+2; its kernel is
    trivial exactly in the range i <= n-1.
    """
    if not 0 <= i <= 2 * n:
        raise ValueError(f"degree {i} outside 0..{2 * n}")
    alg, w = _symplectic_setup(n)
    return comb(2 * n, i) - multiplication_matrix(alg, w, i).rank()


# -- preset parsing -----------------------------------------------------

PRESETS: dict[str, str] = {
    "heisenberg": "heisenberg:N  (rank-N Heisenberg model, N >= 1)",
    "heisenberg_type": "heisenberg_type:M,N  (Heisenberg times torus, N >= 2M)",
    "example_initial": "example_initial  (two-step model, H^2 not generated in degree 1)",
    "example_contr": "example_contr[:p=EXPR]  (three-step tower, p a 2-form over the base)",
}


def parse_preset(text: str) -> CDGA:
    """Build a preset model from a descriptor like ``heisenberg:2``."""
    name, _, argstr = text.partition(":")
    name = name.strip()
    argstr = argstr.strip()
    if name == "heisenberg":
        return heisenberg(_int_args(name, argstr, 1)[0])
    if name == "heisenberg_type":
        m, n = _int_args(name, argstr, 2)
        return heisenberg_type(m, n)
    if name == "example_initial":
        if argstr:
            raise ValueError("example_initial takes no arguments")
        return example_initial()
    if name == "example_contr":
        if not argstr:
            return example_contr()
        match = re.fullmatch(r"p\s*=\s*(.+)", argstr)
        if not match:
            raise ValueError(f"expected example_contr:p=EXPR, got {text!r}")
        return example_contr(match.group(1))
    raise ValueError(f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}")


def _int_args(name: str, argstr: str, count: int) -> list[int]:
    parts = [p.strip() for p in argstr.split(",")] if argstr else []
    if len(parts) != count or not all(re.fullmatch(r"-?\d+", p) for p in parts):
        raise ValueError(f"{name} expects {count} integer argument(s), got {argstr!r}")
    return [int(p) for p in parts]
