"""Finite cochain complexes over Q and chain complexes over Z.

Provides cohomology with integer representatives, total tensor products
with the Leibniz sign, a Kunneth dimension check, integral homology from
invariant factors, and a universal-coefficient dimension check.

Rational cohomology, and the spectral sequences of `spectral`, come from one
filtered column reduction, the persistence pairing (Zomorodian and Carlsson
2005): with a level on each basis vector (all zero for plain cohomology),
d^n is reduced column by column in the order (level descending, index
ascending), the low of a column being its nonzero row that comes last in
that order.  A reduced column pairs a source with a target; the classes of
the unpaired basis vectors, which are cycles, form a basis of H^n, and with
the targets of degree n they are triangular, so `_reduce` writes any cycle
on them (`spectral` writes one filtration's classes on another's basis this
way).  The reduction is fraction-free (Bareiss 1968): each column is read
off the stored numerators and divided by its content with the denominator,
once per complex, and the gcd of all entries is divided out after each step.

Both gradings share one storage, `_Complex`: a subclass names only its
step (+1 for cochain, -1 for chain complexes) and its matrix class, and the
builder `_build`, `validate_complex` and the document parser read the step
from the class.  Every function here assumes d o d = 0 and does not check
it: the builders `cochain_complex`/`int_chain_complex` check shapes only,
while `validate_complex` and the document parsers check the composites,
multiplying no absent (zero) differential.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import cached_property
from math import gcd, inf, lcm

from ._record import Record, _set
from .qlinalg import RatMatrix
from .zlinalg import (
    FinAbGroup,
    IntMatrix,
    _rank_mod_p,
    invariant_factors,
    is_prime,
)


class ComplexError(ValueError):
    """Raised when a complex fails its structural invariants."""


class _Complex(Record):
    """Graded storage of both gradings: d_n maps degree n to n + step, step
    and matrix class named by the subclass.  dims holds only nonzero degrees;
    differentials hold only nonzero maps, d_n of shape dim(n+step) x dim(n).
    """

    def __init__(self, min_deg: int, max_deg: int, dims: dict[int, int],
                 differentials: dict[int, object]):
        _set(self, "min_deg", min_deg)
        _set(self, "max_deg", max_deg)
        _set(self, "dims", dims)
        _set(self, "differentials", differentials)

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def degrees(self):
        return range(self.min_deg, self.max_deg + 1)


class CochainComplex(_Complex):
    """Graded Q-vector spaces with differentials d^n: C^n -> C^{n+1}."""

    step = 1
    matrix = RatMatrix

    @cached_property
    def _columns(self) -> dict[int, list[tuple[Sequence[int], int]]]:
        """Columns of each stored d^n as (v, den), v an integer vector with
        column = v / den and gcd(den, *v) = 1: scaled once, for every
        pairing of the complex."""
        return {n: [_primitive(D.nums[i::D.cols], D.den)
                     for i in range(D.cols)]
                for n, D in self.differentials.items()}


class IntChainComplex(_Complex):
    """Free Z-modules with differentials d_n: C_n -> C_{n-1} (homological)."""

    step = -1
    matrix = IntMatrix


def _build(cls, min_deg: int, dims: dict[int, int], differentials):
    """Build a complex of class cls, checking shapes and dropping zero data."""
    dims = {n: d for n, d in dims.items() if d > 0}
    max_deg = max(dims) if dims else min_deg
    min_deg = min(dims) if dims else min_deg
    diffs = {}
    for n, M in differentials.items():
        want = (dims.get(n + cls.step, 0), dims.get(n, 0))
        if (M.rows, M.cols) != want:
            raise ComplexError(
                f"differential at degree {n} has shape {M.rows}x{M.cols}, "
                f"expected {want[0]}x{want[1]}")
        if any(M.nums):
            diffs[n] = M
    return cls(min_deg, max_deg, dims, diffs)


def cochain_complex(min_deg: int, dims: dict[int, int],
                    differentials: dict[int, RatMatrix]) -> CochainComplex:
    """Build a CochainComplex, checking shapes and dropping zero data."""
    return _build(CochainComplex, min_deg, dims, differentials)


def int_chain_complex(min_deg: int, dims: dict[int, int],
                      differentials: dict[int, IntMatrix]) -> IntChainComplex:
    """Build an IntChainComplex, checking shapes and dropping zero data."""
    return _build(IntChainComplex, min_deg, dims, differentials)


def _primitive(column: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    """(v, d) with column / den = v / d and gcd(d, *v) = 1."""
    g = gcd(den, *column)
    return (column, den) if g == 1 else (
        tuple(x // g for x in column), den // g)


def _composite(outer, inner):
    """outer @ inner, or None when the product is zero; an absent (None)
    factor makes it zero by shape, so nothing is multiplied."""
    if outer is None or inner is None:
        return None
    prod = outer @ inner
    return prod if any(prod.nums) else None


def _nonzero_composite(C):
    """The lowest degree min(n, n + step) at which d_{n+step} o d_n is
    nonzero, or None.  Only the stored maps are visited, in ascending n."""
    d, step = C.differentials, C.step
    return next((min(n, n + step) for n in sorted(d)
                 if _composite(d.get(n + step), d.get(n)) is not None), None)


def validate_complex(C) -> bool:
    """True iff adjacent differentials compose to zero."""
    if not isinstance(C, _Complex):
        raise TypeError(f"not a complex: {type(C)!r}")
    return _nonzero_composite(C) is None


# Basis vector i of C^n after the pairing: its level, the pages 1..life it
# lives on (0 for none, inf if unpaired) and whether it is a source.  Only
# in the last degree paired does it carry a chain, an integer vector whose
# low is i: den * e_i plus multiples of basis vectors earlier in the
# reduction order, rescaled by the reduction, or for a target the reduced
# column of its source.  Below that degree the chain is empty.
_Generator = namedtuple("_Generator", "n i level life source chain")


def _reduce(vec, chain, pivots, order):
    """While the low of vec (its first nonzero position in `order`) has a
    pivot (vector, chain, ...), clear it without fractions: with g the gcd
    of the two lows, vec becomes (plow/g) vec - (low/g) pvec and chain the
    same combination of chain and pchain, both then divided by the gcd of
    all their entries.  Returns (vec, chain, low), low None when vec
    reduced to zero."""
    while True:
        low = next((j for j in order if vec[j]), None)
        if low not in pivots:
            return vec, chain, low
        pvec, pchain = pivots[low][:2]
        g = gcd(pvec[low], vec[low])
        a, b = pvec[low] // g, vec[low] // g
        vec = [a * x - b * y for x, y in zip(vec, pvec)]
        chain = [a * x - b * y for x, y in zip(chain, pchain)]
        g = gcd(*vec, *chain)
        if g > 1:
            vec = [x // g for x in vec]
            chain = [x // g for x in chain]


def _pairing(C: CochainComplex, levels: dict[int, Sequence[int]],
             last: int) -> list[_Generator]:
    """Persistence pairing of C in degrees up to `last`, basis vector i of
    C^n at level levels[n][i] (all 0 for a degree not in levels).

    Chains are built in degree `last` only (none when C^last = 0): there a
    column's chain starts as den * e_i over its scaled column v = den *
    d^n e_i, so d^n chain = vec holds throughout; below it `_reduce`
    updates the column alone.  A column whose basis vector is already the
    target of a pair reduces to zero, so it is skipped (clearing); so is
    every column of an absent (zero) d^n, each a cycle.
    """
    gens: list[_Generator] = []
    killed: dict[int, tuple] = {}
    for n in range(C.min_deg, last + 1):
        src = levels.get(n) or [0] * C.dim(n)
        columns = C._columns.get(n)
        dst = levels.get(n + 1) or [0] * C.dim(n + 1)
        order = sorted(range(len(dst)), key=lambda j: (dst[j], -j)) \
            if columns else ()
        pivots: dict[int, tuple] = {}  # low -> (column, chain, source level)
        for i in sorted(range(len(src)), key=lambda i: (-src[i], i)):
            if i in killed:
                col, _, level = killed[i]
                gens.append(_Generator(n, i, src[i], src[i] - level, False,
                                       tuple(col) if n == last else ()))
                continue
            col, den = columns[i] if columns else ((), 1)
            chain = [0] * len(src) if n == last else []
            if chain:
                chain[i] = den
            col, chain, low = _reduce(col, chain, pivots, order)
            if low is None:
                gens.append(_Generator(n, i, src[i], inf, False, tuple(chain)))
                continue
            pivots[low] = col, chain, src[i]
            gens.append(_Generator(n, i, src[i], dst[low] - src[i], True,
                                   tuple(chain)))
        killed = pivots
    return gens


def cohomology(C: CochainComplex, n: int) -> tuple[int, tuple[tuple, ...]]:
    """(dim H^n, the unpaired cycles of degree n as integer rows, whose
    classes form a basis of H^n)."""
    if C.dim(n) == 0:
        return 0, ()
    reps = tuple(g.chain for g in _pairing(C, {}, n)
                 if g.n == n and g.life == inf)
    return len(reps), reps


def cohomology_dims(C: CochainComplex) -> dict[int, int]:
    # paired one degree past the top, where C is 0: no chains are built
    cycles = Counter(g.n for g in _pairing(C, {}, C.max_deg + 1)
                     if g.life == inf)
    return {n: cycles[n] for n in C.degrees()}


def _totalize(min_deg: int, dims: dict[tuple[int, int], int], horiz,
              vert) -> CochainComplex:
    """Totalization T^n = sum_{r+s=n} K^{r,s} of the nonzero cells `dims`,
    blocks in increasing r, with D = horiz + (-1)^r vert, each map keyed by
    its source cell: horiz to (r+1, s), vert to (r, s+1).  D^n is written
    on the blocks' numerators over the lcm of their denominators."""
    offsets: dict[tuple[int, int], int] = {}
    total: Counter = Counter()
    for r, s in sorted(dims):
        offsets[r, s] = total[r + s]
        total[r + s] += dims[r, s]
    blocks: dict[int, list] = {}  # n -> (row offset, column offset, sign, M)
    for (r, s), off in offsets.items():
        for M, cell, sign in ((horiz.get((r, s)), (r + 1, s), 1),
                              (vert.get((r, s)), (r, s + 1), (-1) ** r)):
            if M is not None and cell in offsets:
                blocks.setdefault(r + s, []).append((offsets[cell], off,
                                                     sign, M))
    diffs = {}
    for n, parts in blocks.items():
        den = lcm(*[M.den for *_, M in parts])
        width = total[n]
        nums = [0] * (total[n + 1] * width)
        for to, off, sign, M in parts:
            k, c = sign * (den // M.den), M.cols
            block = M.nums if k == 1 else [k * x for x in M.nums]
            for a in range(M.rows):
                at = (to + a) * width + off
                nums[at:at + c] = block[a * c:(a + 1) * c]
        diffs[n] = RatMatrix(total[n + 1], width, tuple(nums), den)
    return cochain_complex(min_deg, dict(total), diffs)


def _kron(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    """Kronecker product: entry (a B.rows + b, x B.cols + y) is A[a,x] B[b,y],
    on numerators over the product of the denominators."""
    width = A.cols * B.cols
    out = [0] * (A.rows * B.rows * width)
    nonzero = [(divmod(m, B.cols), v) for m, v in enumerate(B.nums) if v]
    for k, u in enumerate(A.nums):
        if u:
            a, x = divmod(k, A.cols)
            for (b, y), v in nonzero:
                out[(a * B.rows + b) * width + x * B.cols + y] = u * v
    return RatMatrix(A.rows * B.rows, width, tuple(out), A.den * B.den)


def tensor_product(C: CochainComplex, D: CochainComplex) -> CochainComplex:
    """Total tensor complex with differential dx (x) y + (-1)^i x (x) dy: the
    totalization of the bicomplex C^i (x) D^j, so the degree-n basis is
    ordered lexicographically in (i, C^i index, D^{n-i} index)."""
    dims = {(i, j): C.dims[i] * D.dims[j] for i in C.dims for j in D.dims}
    horiz = {(i, j): _kron(d, RatMatrix.identity(D.dims[j]))
             for i, d in C.differentials.items() for j in D.dims}
    vert = {(i, j): _kron(RatMatrix.identity(C.dims[i]), d)
            for i in C.dims for j, d in D.differentials.items()}
    return _totalize(C.min_deg + D.min_deg, dims, horiz, vert)


class CheckReport(Record):
    """Per-degree comparison of two dimension computations: rows holds
    (degree, lhs, rhs)."""

    def __init__(self, name: str, rows: tuple, passed: bool, note: str = ""):
        _set(self, "name", name)
        _set(self, "rows", rows)
        _set(self, "passed", passed)
        _set(self, "note", note)

    def render(self) -> str:
        lines = [f"{self.name}: {'PASS' if self.passed else 'FAIL'}"
                 + (f" ({self.note})" if self.note else "")]
        for n, lhs, rhs in self.rows:
            mark = "ok" if lhs == rhs else "MISMATCH"
            lines.append(f"  degree {n}: {lhs} vs {rhs}  {mark}")
        return "\n".join(lines)


def kunneth_check(C: CochainComplex, D: CochainComplex) -> CheckReport:
    """Compare dim H^n(C (x) D) against the Kunneth convolution of dims."""
    hc = cohomology_dims(C)
    hd = cohomology_dims(D)
    T = tensor_product(C, D)
    rows = []
    for n, lhs in cohomology_dims(T).items():
        rhs = sum(hc.get(i, 0) * hd.get(n - i, 0) for i in hc)
        rows.append((n, lhs, rhs))
    return CheckReport("kunneth", tuple(rows),
                       all(l == r for _, l, r in rows))


def _homology(C: IntChainComplex, n: int, factors) -> FinAbGroup:
    """H_n from dim C_n and the invariant factors of d_n and d_{n+1}, read
    from factors {degree: invariant factors}; an absent map is zero and has
    none, so no zero matrix is built for it."""
    factors_n, factors_next = factors.get(n, ()), factors.get(n + 1, ())
    ranks = sum(1 for d in factors_n + factors_next if d)
    return FinAbGroup(C.dim(n) - ranks,
                      tuple(d for d in factors_next if d > 1))


def homology_int(C: IntChainComplex, n: int) -> FinAbGroup:
    """H_n = ker d_n / im d_{n+1} as a finitely generated abelian group.

    Requires d_n o d_{n+1} = 0.  ker d_n is a saturated lattice containing
    im d_{n+1}, so H_n has free rank dim C_n - rk d_n - rk d_{n+1} and the
    torsion of coker d_{n+1}: its invariant factors > 1 (Munkres, Elements
    of Algebraic Topology, section 11).
    """
    return _homology(C, n, {k: invariant_factors(C.differentials[k])
                            for k in (n, n + 1) if k in C.differentials})


def uct_check(C: IntChainComplex, m: int) -> CheckReport:
    """Check the universal-coefficient dimension identity mod m.

    The right side, dim(H_n (x) Z/m) + dim Tor(H_{n-1}, Z/m) for prime m,
    counts from invariant factors the free rank of H_n and the torsion t of
    H_n and of H_{n-1} with gcd(t, m) > 1.  For prime m the left side
    dim H_n(C (x) Z/m) comes from an independent mod-m Gaussian elimination.
    Composite m: only the invariant-factor side is tabulated, no cross-check.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    factors = {n: invariant_factors(D) for n, D in C.differentials.items()}
    groups = {n: _homology(C, n, factors) for n in C.degrees()}
    none = FinAbGroup(0, ())
    rhs = {n: groups[n].free_rank
           + sum(1 for G in (groups[n], groups.get(n - 1, none))
                 for t in G.torsion if gcd(t, m) > 1)
           for n in C.degrees()}
    if not is_prime(m):
        return CheckReport(
            "uct", (), True,
            note=f"modulus {m} not prime; invariant-factor side only: {rhs}")
    ranks = {n: _rank_mod_p(D, m) for n, D in C.differentials.items()}
    rows = []
    for n in C.degrees():
        lhs = C.dim(n) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        rows.append((n, lhs, rhs[n]))
    return CheckReport("uct", tuple(rows), all(l == r for _, l, r in rows))
