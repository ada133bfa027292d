"""Reference computations for the tests, independent of the code they check.

``Echelon`` keeps no record of how its rows combine the added vectors.
``_WalkEchelon`` walks every pivot on each reduction and, with ``track``,
records those combinations in marker columns, so solves, null spaces and
class coordinates can be checked against it.

``reference_mu_complex_dim`` builds each multiplication matrix from the
bilinear ``multiply_coords`` in ``Fraction`` arithmetic and ranks it with
``_WalkEchelon``, with no pencil and no F_p rank.
``reference_rank_mod_p`` rebuilds the row from a set union at every step.
``reference_pivots_mod_p`` is the heap elimination of ``pivots_mod_p`` with
every pivot row scaled to 1 at its pivot when it is stored, so each step
subtracts the plain multiple c of a normalised row.
``residual`` reads the fraction-free ``(r, s)`` of ``Echelon.reduce`` as the
vector r / s, in r's key order.
``reference_product_coords`` takes a structure constant the ``Fraction``
way: the two representatives multiplied as multivectors, and the product's
class coordinates read by ``CohomologyBasis.coordinates``.
``reference_wedge_table`` reads the wedge table the same way, each pair of
H^1 representatives multiplied as multivectors and reduced modulo B^2.
``ReferenceReport`` keeps the report's per-degree verdict list and its three
marking methods, one per evidence kind, that the report's two numbers
replace.
``full_scan`` is the degree-1 generation test on the ring: in each degree
it ranks every product H^(q-1) x H^1 of basis classes, with no full-rank
stop, so it forms structure constants where the climb on cochains ranks
cochain matrices.
``reference_characteristic_subspace`` and ``reference_bigraded_tower`` read
the cup product on H^1 from the ring's structure constants, in H^2 class
coordinates, where the code reads the CDGA's wedge table; the tower's
first wave ranks the H^2 of the exterior algebra on the stage-0 symbols.
``reference_h2_tower`` is the code's wave loop before the weight blocks:
wave 1 is the characteristic subspace, and every later wave ranks the whole
H^2 of the grown tower into the ring's through the wedge table.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush

from nilform.cdga import CDGA, dict_coords, hirsch_extend
from nilform.formality import FORMAL, INCONCLUSIVE, NOT_FORMAL
from nilform.gca import Generator
from nilform.linalg import _FAST_PRIME, Echelon, SparseMatrix, row_primitive, to_int_row
from nilform.ring import GenerationVerdict, characteristic_subspace, class_symbol_algebra


def residual(ech, vec):
    r, s = ech.reduce(vec)
    return {j: Fraction(v, s) for j, v in r.items()}


class _WalkEchelon:
    """Reference echelon: every reduction walks all pivots in order."""

    def __init__(self, ncols, track):
        self.ncols, self.track = ncols, track
        self.rows, self.pivots, self.null_rows = [], [], []
        self.added = 0

    @staticmethod
    def _combine(a, ca, b, cb):
        out = {j: ca * v for j, v in a.items()}
        for j, v in b.items():
            out[j] = out.get(j, 0) + cb * v
        return {j: v for j, v in out.items() if v}

    def _real(self, row):
        return {j: v for j, v in row.items() if not self.track or j < self.ncols}

    def add(self, vec):
        frac_vec = {j: Fraction(v) for j, v in vec.items() if v}
        if self.track:
            frac_vec[self.ncols + self.added] = Fraction(1)
        self.added += 1
        row = to_int_row(frac_vec)
        for pivot, base in zip(self.pivots, self.rows):
            if row.get(pivot):
                row = self._combine(row, base[pivot], base, -row[pivot])
        if not self._real(row):
            if self.track and row:
                self.null_rows.append(row_primitive(row))
            return False
        row = row_primitive(row)
        pivot = min(self._real(row))
        for k, base in enumerate(self.rows):
            if base.get(pivot):
                self.rows[k] = row_primitive(self._combine(base, row[pivot], row, -base[pivot]))
        at = sum(1 for p in self.pivots if p < pivot)
        self.rows.insert(at, row)
        self.pivots.insert(at, pivot)
        return True

    def reduce(self, vec):
        w = {j: Fraction(v) for j, v in vec.items() if v}
        coeffs = [Fraction(0)] * self.added if self.track else None
        for pivot, base in zip(self.pivots, self.rows):
            c = w.get(pivot)
            if c:
                f = c / base[pivot]
                for j, bv in base.items():
                    if self.track and j >= self.ncols:
                        coeffs[j - self.ncols] += f * bv
                        continue
                    cur = w.get(j, Fraction(0)) - f * bv
                    if cur:
                        w[j] = cur
                    else:
                        del w[j]
        return w, coeffs


def reference_product_coords(ring, qa, ia, qb, ib):
    prod = ring.representative(qa, ia) * ring.representative(qb, ib)
    return ring.basis(qa + qb).coordinates(prod)


def reference_wedge_table(c):
    reps, alg = c.cohomology(1).representatives, c.algebra
    return {
        (i, j): residual(c.coboundaries(2), dict_coords(alg, reps[i] * reps[j], 2))
        for i in range(len(reps))
        for j in range(i + 1, len(reps))
    }


class ReferenceReport:
    """A verdict list per degree, marked up to or from ``ev.k`` by the evidence kind."""

    def __init__(self, k_max):
        self.k_max = k_max
        self._verdicts = [INCONCLUSIVE] * (k_max + 1)
        self.evidence = []

    def verdicts(self):
        return list(self._verdicts)

    def add(self, ev):
        {
            "formal": self.mark_formal_upto,
            "not_formal": self.mark_not_formal_from,
            "info": self.evidence.append,
        }[ev.kind](ev)

    def mark_formal_upto(self, ev):
        for j in range(0, min(ev.k, self.k_max) + 1):
            if self._verdicts[j] == NOT_FORMAL:
                raise RuntimeError(f"conflicting certificates: degree {j} is already not formal")
            self._verdicts[j] = FORMAL
        self.evidence.append(ev)

    def mark_not_formal_from(self, ev):
        for j in range(max(ev.k, 0), self.k_max + 1):
            if self._verdicts[j] == FORMAL:
                raise RuntimeError(f"conflicting certificates: degree {j} is already formal")
            self._verdicts[j] = NOT_FORMAL
        self.evidence.append(ev)

    @property
    def best_formal(self):
        best = None
        for k, v in enumerate(self._verdicts):
            if v == FORMAL:
                best = k
        return best

    @property
    def least_not_formal(self):
        for k, v in enumerate(self._verdicts):
            if v == NOT_FORMAL:
                return k
        return None


def reference_characteristic_subspace(ring):
    """The basis of the kernel of the product_coords columns, one per pair of H^1 classes."""
    alg = class_symbol_algebra(ring.source)
    pairs = alg.basis(2)
    cols = [ring.product_coords(1, i, 1, j) for i, j in pairs]
    kernel = SparseMatrix(ring.dim(2), len(pairs), cols).kernel()
    return tuple(alg.from_coordinates(2, [v.get(k, 0) for k in range(len(pairs))]) for v in kernel)


def reference_bigraded_tower(ring, stage_cap):
    """(tower CDGA, stages, stabilized): every wave ranks the tower's H^2 into the ring's."""
    b1 = ring.dim(1)
    alg = class_symbol_algebra(ring.source)
    names = [g.name for g in alg.generators]
    taken = set(names)

    def image(v):
        out = {}
        for (i, j), c in v.terms.items():
            if j < b1:
                for t, p in ring.product_coords(1, i, 1, j).items():
                    out[t] = out.get(t, 0) + c * p
        return {t: x for t, x in sorted(out.items()) if x}

    cur = CDGA(alg)
    stages = [names]
    for wave in range(1, stage_cap + 1):
        coh2 = cur.cohomology(2)
        cols = [image(rep) for rep in coh2.representatives]
        kern = SparseMatrix(ring.dim(2), coh2.dim, cols).kernel()
        if not kern:
            return cur, stages, True
        additions = []
        for idx, vec in enumerate(kern):
            trans = coh2.class_of([vec.get(t, 0) for t in range(coh2.dim)])
            assert not image(trans)
            name = f"w{wave}_{idx}"
            while name in taken:
                name += "_"
            taken.add(name)
            additions.append((Generator(name, 1), trans))
        cur = hirsch_extend(cur, additions)
        stages.append([g.name for g, _ in additions])
    return cur, stages, False


def reference_h2_tower(c, stage_cap):
    """(tower CDGA, stages, stabilized): waves after the first take the kernel of
    the stage map on the tower's H^2, read through ``c.wedge_table``."""
    sub = characteristic_subspace(c)
    names = [g.name for g in sub.algebra.generators]
    b1, table, taken = len(names), c.wedge_table, set(names)

    def image(v):
        out = {}
        for (i, j), a in v.terms.items():
            if j < b1:
                for t, p in table[(i, j)].items():
                    out[t] = out.get(t, 0) + a * p
        return {t: x for t, x in sorted(out.items()) if x}

    cur, kern = CDGA(sub.algebra), sub.basis
    stages = [names]
    for wave in range(1, stage_cap + 1):
        if wave > 1:
            coh2 = cur.cohomology(2)
            cols = [image(rep) for rep in coh2.representatives]
            kern = [
                coh2.class_of([vec.get(t, 0) for t in range(coh2.dim)])
                for vec in SparseMatrix(c.algebra.dim(2), coh2.dim, cols).kernel()
            ]
        if not kern:
            return cur, stages, True
        additions = []
        for idx, trans in enumerate(kern):
            assert not image(trans)
            name = f"w{wave}_{idx}"
            while name in taken:
                name += "_"
            taken.add(name)
            additions.append((Generator(name, 1), trans))
        cur = hirsch_extend(cur, additions)
        stages.append([g.name for g, _ in additions])
    return cur, stages, False


def full_cokernel(ring, q):
    """dim H^q minus the rank of every product H^(q-1) x H^1, with no full-rank stop."""
    span = Echelon()
    for i in range(ring.dim(q - 1)):
        for j in range(ring.dim(1)):
            span.add(ring.product_coords(q - 1, i, 1, j))
    return ring.dim(q) - span.rank


def full_scan(ring, m):
    """The generation test on the ring: every product in every degree up to the first failure."""
    for q in range(2, m + 1):
        missed = full_cokernel(ring, q)
        if missed:
            return GenerationVerdict(False, q, missed)
    return GenerationVerdict(True)


def multiply_coords(ring, qa, va, qb, vb):
    """Bilinear extension of ``ring.product_coords`` to coordinate vectors."""
    out = {}
    for ia, ca in va.items():
        if not ca:
            continue
        for ib, cb in vb.items():
            if not cb:
                continue
            for j, c in ring.product_coords(qa, ia, qb, ib).items():
                cur = out.get(j, Fraction(0)) + ca * cb * c
                if cur:
                    out[j] = cur
                else:
                    out.pop(j, None)
    return out


def _reference_rank(ring, w, q):
    """Rank of multiplication by w, H^q -> H^(q+1), by the all-pivot walk."""
    sparse_w = {i: Fraction(c) for i, c in enumerate(w) if c}
    ech = _WalkEchelon(ring.dim(q + 1), False)
    return sum(ech.add(multiply_coords(ring, 1, sparse_w, q, {j: Fraction(1)})) for j in range(ring.dim(q)))


def reference_mu_complex_dim(ring, w, q):
    kernel = ring.dim(q) - _reference_rank(ring, w, q)
    if q == 0:
        return kernel
    return kernel - _reference_rank(ring, w, q - 1)


def reference_rank_mod_p(rows):
    p = _FAST_PRIME
    pivots = {}
    for raw in rows:
        row = {j: v % p for j, v in raw.items() if v % p}
        while row:
            col = min(row)
            base = pivots.get(col)
            if base is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {j: (v * inv) % p for j, v in row.items()}
                break
            c = row[col]
            row = {
                j: v
                for j in set(row) | set(base)
                if (v := (row.get(j, 0) - c * base.get(j, 0)) % p)
            }
    return len(pivots)


def reference_pivots_mod_p(rows):
    p = _FAST_PRIME
    pivots = {}
    for raw in rows:
        row = {j: r for j, v in raw.items() if (r := v % p)}
        hits = [j for j in row if j in pivots]
        heapify(hits)
        while hits:
            if (c := row.get(col := heappop(hits))) is None:
                continue
            for j, v in pivots[col].items():
                if j not in row:
                    row[j] = -c * v % p
                    if j in pivots:
                        heappush(hits, j)
                elif r := (row[j] - c * v) % p:
                    row[j] = r
                else:
                    del row[j]
        if row:
            inv = pow(row[col := min(row)], -1, p)
            pivots[col] = {j: v * inv % p for j, v in row.items()}
    return set(pivots)
