"""Free graded-commutative algebras over the rationals.

Generators carry a positive degree.  Odd-degree generators anticommute and
square to zero, even-degree generators commute and admit arbitrary powers.
Elements are sparse rational linear combinations of canonical monomials,
where a canonical monomial is a weakly increasing tuple of generator
indices in declaration order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


class AlgebraError(ValueError):
    """Structural misuse of an algebra: bad generators, mixed algebras."""


class DegreeError(AlgebraError):
    """A degree constraint was violated."""


class InhomogeneousError(DegreeError):
    """An operation required a homogeneous element."""


@dataclass(frozen=True)
class Generator:
    """Algebra generator with a name and a positive degree."""

    name: str
    degree: int

    def __post_init__(self) -> None:
        if not self.name or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", self.name):
            raise AlgebraError(f"invalid generator name {self.name!r}")
        if self.degree < 1:
            raise DegreeError(f"generator {self.name!r} must have degree >= 1")


def _as_generator(spec: Generator | tuple) -> Generator:
    if isinstance(spec, Generator):
        return spec
    return Generator(*spec)


class Algebra:
    """Free graded-commutative algebra on an ordered list of generators."""

    def __init__(self, generators: Iterable[Generator | tuple]):
        gens = tuple(_as_generator(g) for g in generators)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate generator names")
        self.generators = gens
        self._index = {g.name: i for i, g in enumerate(gens)}
        self._parity = tuple(g.degree % 2 for g in gens)
        self._degrees = tuple(g.degree for g in gens)
        self._basis_cache: dict[int, tuple[Monomial, ...]] = {}
        self._basis_index_cache: dict[int, dict[Monomial, int]] = {}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Algebra) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        parts = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"Algebra({parts})"

    # -- generator access ------------------------------------------------

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError(f"unknown generator name {name!r}") from None

    def gen(self, name: str) -> Multivector:
        i = self.index_of(name)
        return Multivector(self, {(i,): Fraction(1)})

    def zero(self) -> Multivector:
        return Multivector(self, {})

    def one(self) -> Multivector:
        return Multivector(self, {(): Fraction(1)})

    def scalar(self, c: Scalar) -> Multivector:
        c = Fraction(c)
        return Multivector(self, {(): c} if c else {})

    def monomial(self, mono: Monomial) -> Multivector:
        return Multivector(self, {tuple(mono): Fraction(1)})

    def degree_of(self, mono: Monomial) -> int:
        return sum(self._degrees[i] for i in mono)

    @property
    def has_even_generators(self) -> bool:
        return any(p == 0 for p in self._parity)

    def top_degree(self) -> int | None:
        """Largest degree with a nonempty basis, None when unbounded."""
        if self.has_even_generators:
            return None
        return sum(self._degrees)

    # -- canonical bases -------------------------------------------------

    def basis(self, q: int) -> tuple[Monomial, ...]:
        """Canonical monomials of total degree q in lexicographic index order."""
        if q < 0:
            return ()
        cached = self._basis_cache.get(q)
        if cached is not None:
            return cached
        out: list[Monomial] = []
        n = len(self.generators)
        acc: list[int] = []

        def rec(start: int, remaining: int) -> None:
            if remaining == 0:
                out.append(tuple(acc))
                return
            for i in range(start, n):
                d = self._degrees[i]
                if d > remaining:
                    continue
                acc.append(i)
                rec(i + (1 if d % 2 else 0), remaining - d)
                acc.pop()

        rec(0, q)
        del rec  # the closure refers to itself; unlink it so no cycle holds the algebra
        result = tuple(out)
        self._basis_cache[q] = result
        self._basis_index_cache[q] = {m: k for k, m in enumerate(result)}
        return result

    def basis_index(self, q: int) -> dict[Monomial, int]:
        self.basis(q)
        return self._basis_index_cache[q]

    def dim(self, q: int) -> int:
        return len(self.basis(q))

    # -- multiplication --------------------------------------------------

    def monomial_product(self, a: Monomial, b: Monomial) -> tuple[int, Monomial] | None:
        """Merge two canonical monomials, returning (sign, monomial) or None if zero."""
        parity = self._parity
        sign = 1
        out: list[int] = []
        odd_remaining = sum(parity[g] for g in a)
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            if a[i] <= b[j]:
                odd_remaining -= parity[a[i]]
                out.append(a[i])
                i += 1
            else:
                g = b[j]
                if parity[g] and odd_remaining % 2:
                    sign = -sign
                out.append(g)
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        for k in range(len(out) - 1):
            if out[k] == out[k + 1] and parity[out[k]]:
                return None
        return sign, tuple(out)

    # -- coordinates -----------------------------------------------------

    def coordinates(self, v: Multivector, q: int) -> list[Fraction]:
        """Coordinate vector of a homogeneous element over basis(q)."""
        if v.algebra is not self and v.algebra != self:
            raise AlgebraError("element belongs to a different algebra")
        index = self.basis_index(q)
        coords = [Fraction(0)] * len(index)
        for mono, c in v.terms.items():
            pos = index.get(mono)
            if pos is None:
                raise DegreeError(f"term of degree {self.degree_of(mono)} in coordinates({q})")
            coords[pos] = c
        return coords

    def from_coordinates(self, q: int, coords: Sequence[Scalar]) -> Multivector:
        monos = self.basis(q)
        if len(coords) != len(monos):
            raise DegreeError(f"expected {len(monos)} coordinates in degree {q}")
        terms = {m: Fraction(c) for m, c in zip(monos, coords) if c}
        return Multivector(self, terms)

    # -- parsing ---------------------------------------------------------

    _TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z0-9_']*)|(\^)|(\*)|(\+)|(-)|(\()|(\)))")

    def parse(self, text: str) -> Multivector:
        """Parse an expression like ``x1*y1 + 2*x2*z - 1/2*y2``."""
        tokens = self._tokenize(text)
        value, pos = self._parse_sum(tokens, 0)
        if pos != len(tokens):
            raise AlgebraError(f"trailing input in expression {text!r}")
        return value

    def _tokenize(self, text: str) -> list[str]:
        tokens = []
        pos = 0
        while pos < len(text):
            m = self._TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise AlgebraError(f"bad token near {text[pos:pos + 10]!r}")
                break
            tokens.append(m.group().strip())
            pos = m.end()
        return [t for t in tokens if t]

    def _parse_sum(self, tokens: list[str], pos: int) -> tuple[Multivector, int]:
        sign = 1
        while pos < len(tokens) and tokens[pos] in "+-":
            if tokens[pos] == "-":
                sign = -sign
            pos += 1
        value, pos = self._parse_term(tokens, pos)
        total = value if sign > 0 else -value
        while pos < len(tokens) and tokens[pos] in "+-":
            sign = 1
            while pos < len(tokens) and tokens[pos] in "+-":
                if tokens[pos] == "-":
                    sign = -sign
                pos += 1
            value, pos = self._parse_term(tokens, pos)
            total = total + (value if sign > 0 else -value)
        return total, pos

    def _parse_term(self, tokens: list[str], pos: int) -> tuple[Multivector, int]:
        value, pos = self._parse_factor(tokens, pos)
        while pos < len(tokens) and tokens[pos] == "*":
            nxt, pos = self._parse_factor(tokens, pos + 1)
            value = value * nxt
        return value, pos

    def _parse_factor(self, tokens: list[str], pos: int) -> tuple[Multivector, int]:
        if pos >= len(tokens):
            raise AlgebraError("unexpected end of expression")
        tok = tokens[pos]
        if tok == "(":
            value, pos = self._parse_sum(tokens, pos + 1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise AlgebraError("unbalanced parenthesis")
            return value, pos + 1
        if re.fullmatch(r"\d+(/\d+)?", tok):
            return self.scalar(Fraction(tok)), pos + 1
        if tok in ("^", "*", "+", "-", ")"):
            raise AlgebraError(f"unexpected token {tok!r}")
        base = self.gen(tok)
        pos += 1
        if pos < len(tokens) and tokens[pos] == "^":
            if pos + 1 >= len(tokens) or not tokens[pos + 1].isdigit():
                raise AlgebraError("expected integer exponent after '^'")
            exp = int(tokens[pos + 1])
            pos += 2
            value = self.one()
            for _ in range(exp):
                value = value * base
            return value, pos
        return base, pos


class Multivector:
    """Sparse homogeneous-or-mixed element of a free graded-commutative algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: dict[Monomial, Fraction]):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({self.algebra.degree_of(m) for m in self.terms}))

    @property
    def degree(self) -> int | None:
        """Common degree of all terms; None for zero, error when mixed."""
        ds = self.degrees()
        if not ds:
            return None
        if len(ds) > 1:
            raise InhomogeneousError(f"mixed degrees {ds}")
        return ds[0]

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    # -- arithmetic ------------------------------------------------------

    def _check_algebra(self, other: Multivector) -> None:
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraError("operands belong to different algebras")

    def __add__(self, other: Multivector) -> Multivector:
        self._check_algebra(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return Multivector(self.algebra, terms)

    def __sub__(self, other: Multivector) -> Multivector:
        self._check_algebra(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) - c
        return Multivector(self.algebra, terms)

    def __neg__(self) -> Multivector:
        return Multivector(self.algebra, {m: -c for m, c in self.terms.items()})

    def scale(self, c: Scalar) -> Multivector:
        c = Fraction(c)
        return Multivector(self.algebra, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c: Scalar) -> Multivector:
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other: Multivector | Scalar) -> Multivector:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_algebra(other)
        alg = self.algebra
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = alg.monomial_product(m1, m2)
                if prod is None:
                    continue
                sign, mono = prod
                terms[mono] = terms.get(mono, Fraction(0)) + sign * c1 * c2
        return Multivector(alg, terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.algebra, frozenset(self.terms.items())))

    # -- display ---------------------------------------------------------

    def _format_monomial(self, mono: Monomial) -> str:
        if not mono:
            return "1"
        parts = []
        i = 0
        while i < len(mono):
            j = i
            while j < len(mono) and mono[j] == mono[i]:
                j += 1
            name = self.algebra.generators[mono[i]].name
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        alg = self.algebra
        items = sorted(self.terms.items(), key=lambda kv: (alg.degree_of(kv[0]), kv[0]))
        chunks = []
        for mono, c in items:
            word = self._format_monomial(mono)
            if word == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = word
            else:
                body = f"{abs(c)}*{word}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"<{self}>"

