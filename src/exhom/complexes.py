"""Finite cochain complexes over Q and chain complexes over Z.

Provides rational cohomology dimensions, total tensor products with the
Leibniz sign, a Kunneth dimension check, integral homology from invariant
factors, and a universal-coefficient dimension check.

Both gradings share one storage, `_Complex`, whose differentials are
column stores (`RatMatrix`, den 1 for a chain complex); a subclass names
only its step (+1 for cochain, -1 for chain complexes), which the builder
`_build`, `validate_complex` and the document parser read from the class.
Every function here assumes d o d = 0 and does not check it: the builders
`cochain_complex`/`int_chain_complex` check shapes only, while
`validate_complex` and the document parsers check the composites, each
costing its nonzero products, multiplying no absent (zero) differential.

Rational cohomology, and the spectral sequences of `spectral`, come from one
filtered column reduction, the persistence pairing (Zomorodian and Carlsson
2005) with clearing (Chen and Kerber 2011), on sparse columns as in PHAT
(Bauer et al. 2017): with a level on each basis vector (all zero for plain
cohomology), d^n is reduced column by column in the order (level
descending, index ascending), the low of a column being its nonzero row
that comes last in that order.  A reduced column pairs a source with a
target; the classes of the unpaired basis vectors, which are cycles, form a
basis of H^n, and with the targets of degree n they are triangular, so
`_reduce` writes any cycle on them (`spectral` writes one filtration's
classes on another's basis this way).  The reduction is fraction-free
(Bareiss 1968): each column is divided by its content with the denominator,
once per complex, and the gcd of all entries is divided out after each
step.  Columns and chains are dicts {index: value} of their nonzero
entries, so a chain that starts as den.e_i is one entry.
"""

from _operator import itemgetter
from itertools import chain
from math import gcd, inf, lcm

from ._record import Record, cached
from .qlinalg import RatMatrix, _products
from .zlinalg import (
    FinAbGroup,
    _chain_factors,
    _rank_mod_p,
    is_prime,
)


class ComplexError(ValueError):
    """Raised when a complex fails its structural invariants."""


class _Complex(Record):
    """Graded storage of both gradings: d_n maps degree n to n + step, the
    step named by the subclass.  dims holds only nonzero degrees;
    differentials hold only nonzero maps, d_n a `RatMatrix` of shape
    dim(n+step) x dim(n).
    """

    _fields = ("min_deg", "max_deg", "dims", "differentials")

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def degrees(self):
        return range(self.min_deg, self.max_deg + 1)


class CochainComplex(_Complex):
    """Graded Q-vector spaces with differentials d^n: C^n -> C^{n+1}."""

    step = 1

    @cached
    def _columns(self) -> dict[int, list[tuple[dict, int]]]:
        """Columns of each stored d^n as (v, den), v an integer column with
        column = v / den and gcd(den, *v) = 1: scaled once, for every
        pairing of the complex."""
        return {n: [_primitive(col, D.den) for col in D.columns]
                if D.den > 1 else [(col, 1) for col in D.columns]
                for n, D in self.differentials.items()}


class IntChainComplex(_Complex):
    """Free Z-modules with differentials d_n: C_n -> C_{n-1} (homological),
    each a `RatMatrix` over den 1."""

    step = -1

    @cached
    def _factors(self) -> dict[int, tuple[int, ...]]:
        """Invariant factors of d_n by degree n, filled by `_factors_of`
        for the degrees asked: each differential is factored once."""
        return {}

    def _factors_of(self, n: int) -> tuple[int, ...]:
        """The invariant factors of d_n; an absent map is zero and has
        none, so no zero matrix is built for it."""
        if n not in self._factors:
            D = self.differentials.get(n)
            self._factors[n] = () if D is None else _chain_factors(D)
        return self._factors[n]


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
        if cls.step < 0 and M.den != 1:
            raise ComplexError(f"differential at degree {n} is not integral")
        if any(M.columns):
            diffs[n] = M
    return cls(min_deg, max_deg, dims, diffs)


def cochain_complex(min_deg: int, dims: dict[int, int],
                    differentials: dict[int, RatMatrix]) -> CochainComplex:
    """Build a CochainComplex, checking shapes and dropping zero data."""
    return _build(CochainComplex, min_deg, dims, differentials)


def int_chain_complex(min_deg: int, dims: dict[int, int],
                      differentials: dict[int, RatMatrix]) -> IntChainComplex:
    """Build an IntChainComplex, checking shapes and dropping zero data."""
    return _build(IntChainComplex, min_deg, dims, differentials)


def _primitive(column: dict, den: int) -> tuple[dict, int]:
    """(v, d) with column / den = v / d and gcd(d, *v) = 1."""
    g = gcd(den, *column.values())
    return (column, den) if g == 1 else (
        {i: x // g for i, x in column.items()}, den // g)


def _composites(C):
    """(n, j, column) of each nonzero column j of d_{n+step} o d_n, n up.
    Over den > 1, d_{n+step}'s rows are divided by their contents and d_n's
    columns are its primitive `_columns`: zeros kept, entries small."""
    d, step = C.differentials, C.step
    for n in sorted(n for n in d if n + step in d):
        outer, inner = d[n + step].columns, d[n].columns
        if d[n + step].den > 1 or d[n].den > 1:
            g = {}
            for i, x in chain.from_iterable(map(dict.items, outer)):
                g[i] = gcd(g.get(i, 0), x)
            outer = [{i: x // g[i] for i, x in col.items()} for col in outer]
            inner = [v for v, _ in C._columns[n]]
        yield from ((n, j, col) for j, col in enumerate(
            _products(outer, inner)) if col)


def _nonzero_composite(C):
    """The lowest min(n, n + step) with d_{n+step} o d_n nonzero, or None."""
    n = next(_composites(C), (None,))[0]
    return None if n is None else min(n, n + C.step)


def validate_complex(C) -> bool:
    """True iff adjacent differentials compose to zero."""
    if not isinstance(C, _Complex):
        raise TypeError(f"not a complex: {type(C)!r}")
    return _nonzero_composite(C) is None


# Basis vector i of C^n after the pairing: its level, the pages 1..life it
# lives on (0 for none, inf if unpaired) and whether it is a source.  Only
# in the last degree paired does it carry a chain, an integer vector
# {index: value} whose low is i: den * e_i plus multiples of basis vectors
# earlier in the reduction order, rescaled by the reduction, or for a target
# the reduced column of its source.  Below that degree the chain is {}.
class _Generator(tuple):
    """(n, i, level, life, source, chain), each also read by its name."""

    __slots__ = ()
    n, i, level, life, source, chain = map(property, map(itemgetter, range(6)))


def _order(levels: list[int]) -> list[int]:
    """The indices of a degree by level descending, index ascending: the
    order the columns of d^n are reduced in, and in which a low comes last."""
    return sorted(range(len(levels)), key=levels.__getitem__, reverse=True)


def _combine(a: int, x: dict, b: int, y: dict) -> dict:
    """a x - b y, without its zeros."""
    out = {i: a * v for i, v in x.items()} if a != 1 else dict(x)
    for i, v in y.items():
        if w := out.get(i, 0) - b * v:
            out[i] = w
        else:
            del out[i]
    return out


def _reduce(vec, chain, pivots, ranks):
    """While the low of vec (its key of greatest rank) has a pivot (vector,
    chain, ...), clear it without fractions: with g the gcd of the two
    lows, vec becomes (plow/g) vec - (low/g) pvec and chain the same
    combination of chain and pchain, both then divided by the gcd of all
    their entries.  Returns (vec, chain, low), low None if vec reduced."""
    while vec:
        low = max(vec, key=ranks.__getitem__)
        if low not in pivots:
            return vec, chain, low
        pvec, pchain = pivots[low][:2]
        g = gcd(pvec[low], vec[low])
        a, b = pvec[low] // g, vec[low] // g
        vec, chain = _combine(a, vec, b, pvec), _combine(a, chain, b, pchain)
        g = gcd(*vec.values(), *chain.values())
        if g > 1:
            vec = {i: x // g for i, x in vec.items()}
            chain = {i: x // g for i, x in chain.items()}
    return vec, chain, None


def _pairing(C: CochainComplex, levels: dict[int, list[int]],
             last: int) -> list[_Generator]:
    """Persistence pairing of C in degrees up to `last`, basis vector i of
    C^n at level levels[n][i] (all 0 for a degree not in levels).  For a
    `last` up to C's top, only degree last's, paired from d^{last-1} on:
    clearing by d^{last-2} would not change that map's pivots.

    Chains are built in degree `last` only: there a column's chain starts
    as {i: den} over its scaled column v = den * d^n e_i, so d^n chain =
    vec holds throughout; below it `_reduce` updates the column alone.  A
    column whose basis vector is already the target of a pair reduces to
    zero, so it is skipped (clearing); so is every column of an absent
    (zero) d^n, each a cycle.
    """
    gens: list[_Generator] = []  # _Generator((...)): tuple's C constructor
    killed: dict[int, tuple] = {}
    first = C.min_deg if last > C.max_deg else max(C.min_deg, last - 1)
    order = _order(levels.get(first) or [0] * C.dim(first))
    for n in range(first, last + 1):
        src = levels.get(n) or [0] * C.dim(n)
        columns = C._columns.get(n)
        dst = levels.get(n + 1) or [0] * C.dim(n + 1)
        following = _order(dst)
        ranks = dict(zip(following, range(len(dst)))) if columns else ()
        pivots: dict[int, tuple] = {}  # low -> (column, chain, source level)
        for i in order:
            if i in killed:
                col, _, level = killed[i]
                gens.append(_Generator((n, i, src[i], src[i] - level, False,
                                        col if n == last else {})))
                continue
            col, den = columns[i] if columns else ({}, 1)
            col, chain, low = _reduce(col, {i: den} if n == last else {},
                                      pivots, ranks)
            if low is None:
                gens.append(_Generator((n, i, src[i], inf, False, chain)))
                continue
            pivots[low] = col, chain, src[i]
            gens.append(_Generator((n, i, src[i], dst[low] - src[i], True,
                                    chain)))
        killed, order = pivots, following
    return gens if first == C.min_deg else gens[C.dim(first):]


def cohomology_dims(C: CochainComplex) -> dict[int, int]:
    # paired one degree past the top, where C is 0: no chains are built
    cycles = dict.fromkeys(C.degrees(), 0)
    for g in _pairing(C, {}, C.max_deg + 1):
        if g.life == inf:
            cycles[g.n] += 1
    return cycles


def _place(dims: dict[tuple[int, int], int]) -> tuple[dict, dict, dict]:
    """Each cell's offset in degree r + s; each basis vector's r and s."""
    offsets, column, row = {}, {}, {}
    for (r, s), d in sorted(dims.items()):
        offsets[r, s] = len(levels := column.setdefault(r + s, []))
        levels += [r] * d
        row.setdefault(r + s, []).extend([s] * d)
    return offsets, column, row


def _totalize(min_deg: int, dims: dict[tuple[int, int], int], horiz,
              vert) -> CochainComplex:
    """Totalization T^n = sum_{r+s=n} K^{r,s} of the nonzero cells `dims`,
    blocks in increasing r, with D = horiz + (-1)^r vert, each map keyed by
    its source cell: horiz to (r+1, s), vert to (r, s+1).  Each column of
    D^n is written once, from the nonzero blocks' columns, rows shifted, on
    their numerators over the lcm of their dens; no shape is re-checked."""
    offsets, levels, _ = _place(dims)
    total = {n: len(v) for n, v in levels.items()}
    blocks: dict[int, list] = {}  # n -> (row offset, column offset, sign, M)
    for maps, dr, ds in ((horiz, 1, 0), (vert, 0, 1)):
        for (r, s), M in maps.items():
            to = offsets.get((r + dr, s + ds))
            if to is not None and (r, s) in offsets and any(M.columns):
                blocks.setdefault(r + s, []).append(
                    (to, offsets[r, s], -1 if ds and r & 1 else 1, M))
    diffs = {}
    for n, parts in blocks.items():
        den = lcm(*[part[3].den for part in parts])
        columns = tuple({} for _ in range(total[n]))
        for to, off, sign, M in parts:
            k = sign * (den // M.den)
            for j, col in enumerate(M.columns, off):
                out = columns[j]
                for i, x in col.items():
                    out[to + i] = k * x
        diffs[n] = RatMatrix(total.get(n + 1, 0), total[n], columns, den)
    return CochainComplex(min(total, default=min_deg),
                          max(total, default=min_deg), total, diffs)


def _kron(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    """Kronecker product: entry (a B.rows + b, x B.cols + y) is A[a,x] B[b,y],
    on numerators over the product of the denominators."""
    return RatMatrix(A.rows * B.rows, A.cols * B.cols, tuple(
        {a * B.rows + b: u * v for a, u in x.items() for b, v in y.items()}
        for x in A.columns for y in B.columns), A.den * B.den)


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
    (degree, lhs, rhs), or (degree, value) where only one side is known."""

    _fields, _defaults = ("name", "rows", "passed", "note"), ("",)

    def render(self) -> str:
        lines = [f"{self.name}: {'PASS' if self.passed else 'FAIL'}"
                 + (f" ({self.note})" if self.note else "")]
        for n, *sides in self.rows:
            line = f"  degree {n}: " + " vs ".join(map(str, sides))
            if len(sides) == 2:
                line += "  ok" if sides[0] == sides[1] else "  MISMATCH"
            lines.append(line)
        return "\n".join(lines)


def kunneth_check(C: CochainComplex, D: CochainComplex) -> CheckReport:
    """Compare dim H^n(C (x) D) against the Kunneth convolution of dims."""
    hc, hd = cohomology_dims(C), cohomology_dims(D)
    rows = tuple((n, lhs, sum(hc.get(i, 0) * hd.get(n - i, 0) for i in hc))
                 for n, lhs in cohomology_dims(tensor_product(C, D)).items())
    return CheckReport("kunneth", rows, all(l == r for _, l, r in rows))


def homology_int(C: IntChainComplex, n: int) -> FinAbGroup:
    """H_n = ker d_n / im d_{n+1} as a finitely generated abelian group.

    Requires d_n o d_{n+1} = 0.  ker d_n is a saturated lattice containing
    im d_{n+1}, so H_n has free rank dim C_n - rk d_n - rk d_{n+1} and the
    torsion of coker d_{n+1}: its invariant factors > 1 (Munkres, Elements
    of Algebraic Topology, section 11).
    """
    factors_n, factors_next = C._factors_of(n), C._factors_of(n + 1)
    ranks = sum(1 for d in factors_n + factors_next if d)
    return FinAbGroup(C.dim(n) - ranks,
                      tuple(d for d in factors_next if d > 1))


def uct_check(C: IntChainComplex, m: int) -> CheckReport:
    """Check the universal-coefficient dimension identity mod m.

    The right side, dim(H_n (x) Z/m) + dim Tor(H_{n-1}, Z/m) for prime m,
    counts from invariant factors the free rank of H_n and the torsion t of
    H_n and of H_{n-1} with gcd(t, m) > 1.  For prime m the left side
    dim H_n(C (x) Z/m) comes from an independent mod-m Gaussian elimination.
    Composite m: only the invariant-factor side is tabulated, as rows
    (degree, value), with no cross-check.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    groups = {n: homology_int(C, n) for n in C.degrees()}
    none = FinAbGroup(0, ())
    rhs = {n: groups[n].free_rank
           + sum(1 for G in (groups[n], groups.get(n - 1, none))
                 for t in G.torsion if gcd(t, m) > 1)
           for n in C.degrees()}
    if not is_prime(m):
        return CheckReport(
            "uct", tuple(rhs.items()), True,
            note=f"modulus {m} not prime; invariant-factor side only")
    ranks = {n: _rank_mod_p(D, m) for n, D in C.differentials.items()}
    rows = tuple((n, C.dim(n) - ranks.get(n, 0) - ranks.get(n + 1, 0), rhs[n])
                 for n in C.degrees())
    return CheckReport("uct", rows, all(l == r for _, l, r in rows))
