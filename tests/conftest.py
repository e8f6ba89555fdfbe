"""Shared randomized generators for the test suite.

Random complexes are built as direct sums of elementary two-term complexes
and lone summands, then conjugated by random invertible (over Q) or
unimodular (over Z) changes of basis so the matrices look generic while
d o d = 0 holds exactly.  Double complexes come from tensor bicomplexes of
two random complexes, which have commuting squares by construction, or from
staircase zigzags with known pages.

Also holds the kernel-lattice route to integral homology, which the library
used before it read H_n off invariant factors, the persistence pairing over
`Fraction`, which it used before the fraction-free one, and the Bareiss pass
that rescales every row at every step, which it used before the lazy one,
and the mod-M Smith elimination that reduces every entry it writes, which
it used before the one that reduces only where a value is read: the
references `homology_int`, `complexes._pairing`, `zlinalg._bareiss` and
`zlinalg._smith_mod` are tested against, and the per-cell composite checks
listing every failure, the first of which `spectral.double_complex` raises.
`page_representatives` pairs again with chains to give the representatives
of every cell of every page, which `spectral_pages` does not build.

And the rational subspace algebra the library used before `oppose` compared
filtrations by counts and integer ranks: `rref` (fraction-free on the
numerators), `rank`, canonical `Subspace`s with sum, intersection and
complement, and the stacking and vector product of `RatMatrix` they need.
`filtration_spaces`, `reference_opposite` and `reference_criterion` read a
`spectral.FiltrationChain` through it.

And library code no subcommand reaches: the serializers, which write a
complex or a double complex back as a document (lowest-terms rationals with
the sign on the numerator, so a parse-serialize round trip is bit-stable),
the degreewise dual `hom_dual`, `cokernel_structure`, the Bareiss
`determinant`, `rank_mod_p` (`zlinalg._rank_mod_p` behind a primality test),
an `IntMatrix`'s `column` and `to_rational`, `degenerates_at` on spectral
pages and `e2_dim`, one second-page cell read off `steinberg._row`.  And the
Ext labels `steinberg._row` sums without naming them: `SteinbergLabel`,
`delta`, `ext_dim`, and `ext_row`, which builds a second-page row by brute
force from them, the oracle `_row` is tested against.

And simplicial surfaces with known homology, the 6-vertex projective plane
and the 7-vertex torus and their barycentric subdivisions, whose boundary
matrices hold only -1, 0 and 1.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, inf, lcm
from typing import Iterable, List, Sequence, Tuple

from exhom._record import Record, _set
from exhom.complexes import (
    CochainComplex,
    IntChainComplex,
    _composite,
    _Generator,
    _pairing,
    cochain_complex,
    int_chain_complex,
)
from exhom.qlinalg import RatMatrix
from exhom.spectral import (
    COLUMN,
    ROW,
    SpectralPages,
    _levels,
    double_complex,
)
from exhom.steinberg import InducedSpectrum, _row
from exhom.zlinalg import (
    FinAbGroup,
    IntMatrix,
    _bareiss,
    _rank_mod_p,
    _xgcd,
    invariant_factors,
    is_prime,
    smith_normal_form,
)


# ------------------------------------------ rational subspace reference

def _over(M: RatMatrix, den: int) -> tuple:
    """M's numerators rescaled to the multiple `den` of its denominator."""
    k = den // M.den
    return M.nums if k == 1 else tuple(k * x for x in M.nums)


def vstack(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    if A.cols != B.cols:
        raise ValueError("column mismatch in vstack")
    den = lcm(A.den, B.den)
    return RatMatrix(A.rows + B.rows, A.cols, _over(A, den) + _over(B, den),
                     den)


def hstack(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    if A.rows != B.rows:
        raise ValueError("row mismatch in hstack")
    den = lcm(A.den, B.den)
    a, b, c, e = _over(A, den), _over(B, den), A.cols, B.cols
    flat = []
    for i in range(A.rows):
        flat += a[i * c:(i + 1) * c]
        flat += b[i * e:(i + 1) * e]
    return RatMatrix(A.rows, c + e, tuple(flat), den)


def apply(M: RatMatrix, vector: Sequence) -> Tuple[Fraction, ...]:
    """M times a column vector, as a flat tuple."""
    v = tuple(Fraction(x) for x in vector)
    if len(v) != M.cols:
        raise ValueError("vector length mismatch")
    return (M @ RatMatrix(len(v), 1, v)).entries


def rref(M: RatMatrix) -> Tuple[RatMatrix, List[int]]:
    """Reduced row echelon form of M, keeping dimensions.

    Returns (R, pivot_cols) with pivot columns in increasing order; the rank
    of M is the number of pivots.  The elimination is fraction-free on the
    numerators: a pivot p clears entry a of another row as (p/g) row - (a/g)
    pivot row, g = gcd(p, a), and every changed row is divided by its
    content.  Each pivot row is divided by its pivot only at the end, over
    the lcm of the pivots.
    """
    rows = [list(v) for v in M._num_rows()]
    pivots: List[int] = []
    r = 0
    for c in range(M.cols):
        if r == M.rows:
            break
        pr = next((i for i in range(r, M.rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(M.rows):
            a = rows[i][c]
            if i != r and a:
                g = gcd(p, a)
                v = [(p // g) * x - (a // g) * y for x, y in zip(rows[i], prow)]
                h = gcd(*v)
                rows[i] = [x // h for x in v] if h > 1 else v
        pivots.append(c)
        r += 1
    den = lcm(*[rows[k][c] for k, c in enumerate(pivots)])
    for k, c in enumerate(pivots):
        if rows[k][c] != den:
            m = den // rows[k][c]
            rows[k] = [m * x for x in rows[k]]
    return RatMatrix(M.rows, M.cols, tuple(x for v in rows for x in v),
                     den), pivots


def rank(M: RatMatrix) -> int:
    return len(rref(M)[1])


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^ambient_dim in canonical (RREF, no zero rows)
    form, so two equal subspaces are equal values."""

    ambient_dim: int
    basis: RatMatrix

    def __post_init__(self):
        if self.basis.cols != self.ambient_dim:
            raise ValueError("basis width != ambient dimension")

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [list(v) for v in vectors]
        if not vecs:
            return Subspace(ambient_dim, RatMatrix.zero(0, ambient_dim))
        R, pivots = rref(RatMatrix.from_rows(vecs, ambient_dim))
        k = len(pivots)
        return Subspace(ambient_dim, RatMatrix(k, ambient_dim,
                                               R.nums[:k * ambient_dim], R.den))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RatMatrix.zero(0, ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RatMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> List[Tuple[Fraction, ...]]:
        return [self.basis.row(i) for i in range(self.basis.rows)]

    def contains(self, vector: Sequence) -> bool:
        v = [Fraction(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        stacked = vstack(self.basis, RatMatrix.from_rows([v], self.ambient_dim))
        return rank(stacked) == self.dim

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if other.dim == 0:
            return True
        return rank(vstack(self.basis, other.basis)) == self.dim


def kernel_basis(M: RatMatrix) -> Subspace:
    """Null space {x : Mx = 0} as a canonical subspace of Q^cols."""
    R, pivots = rref(M)
    pivot_set = set(pivots)
    free_cols = [c for c in range(M.cols) if c not in pivot_set]
    vecs = []
    for f in free_cols:  # e_f minus column f of R on the pivots, times R.den
        v = [0] * M.cols
        v[f] = R.den
        for r, pc in enumerate(pivots):
            v[pc] = -R.nums[r * M.cols + f]
        vecs.append(v)
    return Subspace.span(M.cols, vecs)


def subspace_sum(U: Subspace, W: Subspace) -> Subspace:
    """Canonical subspace spanned by both bases."""
    if U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.span(U.ambient_dim,
                         U.basis._num_rows() + W.basis._num_rows())


def subspace_intersect(U: Subspace, W: Subspace) -> Subspace:
    """Canonical intersection of two subspaces of the same ambient space."""
    if U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if U.dim == 0 or W.dim == 0:
        return Subspace.zero(U.ambient_dim)
    # a.B_U = -b.B_W lies in both: kernel of [B_U^T | B_W^T], take the a-part.
    K = kernel_basis(hstack(U.basis.transpose(), W.basis.transpose())).basis
    A = RatMatrix(K.rows, U.dim,
                  tuple(x for k in K._num_rows() for x in k[:U.dim]), K.den)
    return Subspace.span(U.ambient_dim, (A @ U.basis)._num_rows())


def is_complementary(U: Subspace, W: Subspace) -> bool:
    """True iff U and W intersect trivially and together span the ambient
    space."""
    if U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if U.dim + W.dim != U.ambient_dim:
        return False
    return subspace_intersect(U, W).dim == 0


def filtration_spaces(F) -> Tuple[Subspace, ...]:
    """The steps F^0, ..., F^{n+1} of a FiltrationChain as Subspaces of its
    basis coordinates, a chain without rows having unit rows."""
    h = F.ambient_dim
    rows = F.rows if F.rows is not None else [
        [int(j == k) for j in range(h)] for k in range(h)]
    return tuple(Subspace.span(h, [v for v, level in zip(rows, F.levels)
                                   if level >= p])
                 for p in range(F.n + 2))


def reference_opposite(F, G) -> bool:
    """`spectral.opposite_check` on Subspaces: F^p and G^{n+1-p} are
    complementary for every p."""
    f, g = filtration_spaces(F), filtration_spaces(G)
    return all(is_complementary(f[p], g[F.n + 1 - p])
               for p in range(F.n + 2))


def reference_criterion(F, G) -> bool:
    """`spectral.dimension_criterion` on Subspaces: F^p + G^{n+1-p} is
    everything and both dim profiles are symmetric."""
    f, g = filtration_spaces(F), filtration_spaces(G)
    n, h = F.n, F.ambient_dim
    return all(subspace_sum(f[p], g[n + 1 - p]).dim == h
               and f[p].dim + f[n + 1 - p].dim == h
               and g[p].dim + g[n + 1 - p].dim == h for p in range(n + 2))


# ---------------------------------------- code no subcommand reaches

def _format_rational(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _format_matrix(M: RatMatrix) -> list:
    return [[_format_rational(f) for f in row] for row in M.to_lists()]


def serialize_cochain(C: CochainComplex) -> str:
    doc = {
        "min_deg": C.min_deg,
        "dims": {str(n): C.dim(n) for n in sorted(C.dims)},
        "differentials": {
            str(n): _format_matrix(M)
            for n, M in sorted(C.differentials.items())
        },
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def serialize_double_complex(K) -> str:
    doc = {
        "max_r": K.max_r,
        "max_c": K.max_c,
        "dims": {f"{r},{s}": d for (r, s), d in sorted(K.dims.items())},
        "horiz": {f"{r},{s}": _format_matrix(M)
                  for (r, s), M in sorted(K.horiz.items())},
        "vert": {f"{r},{s}": _format_matrix(M)
                 for (r, s), M in sorted(K.vert.items())},
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def hom_dual(C: CochainComplex) -> CochainComplex:
    """Degreewise dual with transposed differentials, re-indexed as a cochain
    complex: dual^n = (C^{m-n})* for m = min_deg + max_deg."""
    m = C.min_deg + C.max_deg
    dims = {m - n: C.dim(n) for n in C.degrees()}
    # (d^n)^T : (C^{n+1})* -> (C^n)*, i.e. dual^{m-n-1} -> dual^{m-n}
    diffs = {m - n - 1: d.transpose() for n, d in C.differentials.items()}
    return cochain_complex(min(dims) if dims else 0, dims, diffs)


def cokernel_structure(A: IntMatrix) -> FinAbGroup:
    """Structure of Z^rows / image(A), A acting on column vectors."""
    nonzero = [d for d in invariant_factors(A) if d != 0]
    return FinAbGroup(free_rank=A.rows - len(nonzero),
                      torsion=tuple(d for d in nonzero if d > 1))


def determinant(A: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of non-square matrix")
    piv, minor, _ = _bareiss(A)
    return minor if len(piv) == A.rows else 0


def rank_mod_p(A: IntMatrix, p: int) -> int:
    """Rank of A over the field Z/p (p prime)."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return _rank_mod_p(A, p)


def column(A: IntMatrix, j: int) -> tuple:
    return A.nums[j::A.cols]


def to_rational(A: IntMatrix) -> RatMatrix:
    return RatMatrix(A.rows, A.cols, A.nums)


def degenerates_at(P: SpectralPages, r: int) -> bool:
    """True iff every differential on pages >= r has rank zero."""
    return not any(rk and page >= r for (page, _, _), rk in P.d_ranks.items())


def e2_dim(d: int, dp: int, spectrum: InducedSpectrum, r: int, s: int) -> int:
    """Second-page dimension at (r, s), from row s alone."""
    return _row(d, dp, spectrum, s).get(r, 0)


def page_representatives(K, P: SpectralPages) -> dict:
    """{r: {(p, q): chains}}: the chains, in T^{p+q} coordinates, of the
    basis vectors P lists in each cell of each page, whose classes form a
    basis of E_r^{p,q}.  One pairing per degree n gives the degree-n chains."""
    T, levels = K._total, _levels(K, P.filtration_axis)
    chains = {n: {g.i: g.chain for g in _pairing(T, levels, n) if g.n == n}
              for n in T.degrees()}
    return {r: {(p, q): tuple(chains[p + q][i] for i in ids)
                for (p, q), (_, ids) in grid.items()}
            for r, grid in P.pages.items()}


class SteinbergLabel(Record):
    """Subset I of {1..d} labelling a generalized Steinberg representation."""

    def __init__(self, d: int, subset: frozenset):
        _set(self, "d", d)
        _set(self, "subset", subset)
        self.__post_init__()

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not all(1 <= x <= self.d for x in self.subset):
            raise ValueError("label elements must lie in [1, d]")

    @staticmethod
    def of(d: int, elements) -> "SteinbergLabel":
        return SteinbergLabel(d, frozenset(elements))


def delta(I1: SteinbergLabel, I2: SteinbergLabel) -> int:
    """Size of the symmetric difference |I1 u I2| - |I1 n I2|."""
    if I1.d != I2.d:
        raise ValueError("labels live over different dimensions")
    return len(I1.subset ^ I2.subset)


def ext_dim(I1: SteinbergLabel, J1: SteinbergLabel,
            I2: SteinbergLabel, J2: SteinbergLabel, i: int) -> int:
    """Dimension of the degree-i Ext between two Steinberg tensor factors:
    1 exactly when i equals delta(I1,I2) + delta(J1,J2), else 0."""
    return 1 if i == delta(I1, I2) + delta(J1, J2) else 0


def ext_row(d: int, dp: int, spectrum: InducedSpectrum, s: int) -> dict:
    """Row s of the second page as {r: dim} by brute force over the labels:
    each Kunneth pair i + j = s, H^i (x) H^j labelled ({1..i}, {1..j}),
    meets the constituents trivial (x) trivial, labelled (empty, empty),
    with weight 1, Steinberg (x) trivial ({1..d}, empty) with m10, trivial
    (x) Steinberg with m01 and Steinberg (x) Steinberg with m11, and adds
    its weight at every r in 0..d+d' where `ext_dim` is 1."""
    def label(dim, k):
        return SteinbergLabel.of(dim, range(1, k + 1))

    row = {}
    for i in range(d + 1):
        if not 0 <= s - i <= dp:
            continue
        I, J = label(d, i), label(dp, s - i)
        for a, b, w in ((0, 0, 1), (d, 0, spectrum.m10), (0, dp, spectrum.m01),
                        (d, dp, spectrum.m11)):
            for r in range(d + dp + 1):
                if w and ext_dim(I, J, label(d, a), label(dp, b), r):
                    row[r] = row.get(r, 0) + w
    return row


# ------------------------------------------------------------- generators

def differential(C, n: int):
    """d_n of C as a matrix, zero when the map is absent: the library keeps
    only the maps that are nonzero and never builds a zero one."""
    d = C.differentials.get(n)
    return C.matrix.zero(C.dim(n + C.step), C.dim(n)) if d is None else d


def random_cochain(rng, max_deg=3, max_pieces=4, scale=3):
    """Random rational cochain complex with degrees in [0, max_deg]."""
    dims = {n: 0 for n in range(max_deg + 1)}
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        if rng.random() < 0.55 and max_deg >= 1:
            d = rng.randint(0, max_deg - 1)
            pieces.append((d, "arrow", dims[d], dims[d + 1]))
            dims[d] += 1
            dims[d + 1] += 1
        else:
            d = rng.randint(0, max_deg)
            pieces.append((d, "point", dims[d], None))
            dims[d] += 1
    diffs = {}
    for n in range(max_deg):
        if dims[n] and dims[n + 1]:
            rows = [[Fraction(0)] * dims[n] for _ in range(dims[n + 1])]
            for d, kind, src, dst in pieces:
                if kind == "arrow" and d == n:
                    rows[dst][src] = Fraction(rng.choice(
                        [x for x in range(-scale, scale + 1) if x]))
            diffs[n] = RatMatrix.from_rows(rows, dims[n])
    return cochain_complex(0, dims, diffs)


def _rat_inverse(M: IntMatrix) -> RatMatrix:
    """Inverse of an invertible integer M by fraction-free Gauss-Jordan on
    [M | I] (Bareiss): after step c every entry is an integer minor, so the
    divisions by the previous pivot are exact, and [M | I] ends as
    [p.I | p.M^-1] for the last pivot p.  Fractions appear only there."""
    d = M.rows
    m = [list(M.row(i)) + [int(i == j) for j in range(d)] for i in range(d)]
    prev = 1
    for c in range(d):
        pr = next(i for i in range(c, d) if m[i][c])
        m[c], m[pr] = m[pr], m[c]
        top, p = m[c], m[c][c]
        for i in range(d):
            if i != c:
                f = m[i][c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
    return RatMatrix.from_rows(
        [[Fraction(x, prev) for x in row[d:]] for row in m], d)


def _random_invertible(rng, d, spread=2) -> IntMatrix:
    while True:
        M = IntMatrix.from_rows(
            [[rng.randint(-spread, spread) for _ in range(d)]
             for _ in range(d)], d)
        if determinant(M):
            return M


def conjugate_cochain(rng, C: CochainComplex, spread=2) -> CochainComplex:
    """Apply a random invertible change of basis in every degree."""
    P = {n: _random_invertible(rng, C.dim(n), spread) for n in C.degrees()}
    diffs = {}
    for n in C.degrees():
        dn = differential(C, n)
        if dn.rows and dn.cols:
            diffs[n] = to_rational(P[n + 1]) @ dn @ _rat_inverse(P[n])
    return cochain_complex(C.min_deg, dict(C.dims), diffs)


def random_dense_cochain(rng, max_deg=3, max_pieces=4):
    return conjugate_cochain(rng, random_cochain(rng, max_deg, max_pieces))


def random_unimodular(rng, n, ops=6):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return IntMatrix.from_rows(m, n)


def random_int_chain(rng, max_deg=3, max_pieces=4, max_mult=6):
    """Random integer chain complex, conjugated by unimodular matrices."""
    dims = {n: 0 for n in range(max_deg + 1)}
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        if rng.random() < 0.6 and max_deg >= 1:
            d = rng.randint(1, max_deg)
            pieces.append((d, "arrow", dims[d], dims[d - 1],
                           rng.randint(1, max_mult) * rng.choice([1, -1])))
            dims[d] += 1
            dims[d - 1] += 1
        else:
            d = rng.randint(0, max_deg)
            pieces.append((d, "point", dims[d], None, 0))
            dims[d] += 1
    U = {n: random_unimodular(rng, dims[n]) for n in dims}
    Uinv = {}
    for n, M in U.items():
        # invert the unimodular matrix exactly over Q; the result is integral
        inv = _rat_inverse(M) if M.rows else None
        Uinv[n] = (IntMatrix.from_rows(
            [[f.numerator for f in inv.row(i)] for i in range(inv.rows)],
            inv.cols) if inv is not None else IntMatrix.zero(0, 0))
    diffs = {}
    for n in range(1, max_deg + 1):
        if dims[n] and dims[n - 1]:
            rows = [[0] * dims[n] for _ in range(dims[n - 1])]
            for d, kind, src, dst, mult in pieces:
                if kind == "arrow" and d == n:
                    rows[dst][src] = mult
            D = IntMatrix.from_rows(rows, dims[n])
            diffs[n] = U[n - 1] @ D @ Uinv[n]
    return int_chain_complex(0, dims, diffs)


def tensor_double_complex(C: CochainComplex, D: CochainComplex):
    """Tensor bicomplex K^{r,s} = C^r (x) D^s with commuting squares."""
    dims = {}
    horiz = {}
    vert = {}
    for r in C.degrees():
        for s in D.degrees():
            dims[(r, s)] = C.dim(r) * D.dim(s)
    for r in C.degrees():
        for s in D.degrees():
            m, k = C.dim(r), D.dim(s)
            if not dims.get((r, s)):
                continue
            dc, dd = differential(C, r), differential(D, s)
            if dims.get((r + 1, s)):
                rows = [[Fraction(0)] * (m * k) for _ in range(dc.rows * k)]
                for a in range(dc.rows):
                    for b in range(dc.cols):
                        if dc[a, b]:
                            for y in range(k):
                                rows[a * k + y][b * k + y] = dc[a, b]
                horiz[(r, s)] = RatMatrix.from_rows(rows, m * k)
            if dims.get((r, s + 1)):
                rows = [[Fraction(0)] * (m * k) for _ in range(m * dd.rows)]
                for x in range(m):
                    for a in range(dd.rows):
                        for b in range(dd.cols):
                            if dd[a, b]:
                                rows[x * dd.rows + a][x * dd.cols + b] = dd[a, b]
                vert[(r, s)] = RatMatrix.from_rows(rows, m * k)
    return double_complex(C.max_deg, D.max_deg, dims, horiz, vert)


def random_double_complex(rng, max_r=3, max_c=3):
    """Random first-quadrant double complex with cell dims <= 3."""
    C = random_dense_cochain(rng, max_deg=max_r, max_pieces=3)
    D = random_cochain(rng, max_deg=max_c, max_pieces=2)
    return tensor_double_complex(C, D)


class Zigzags:
    """Known answers for a direct sum of staircase zigzags and lone cells.

    A zigzag (axis, p, q, r) has, in the (p, q) coordinates of `axis`,
    generators x_0..x_{r-1} at (p+i, q-i) and y_1..y_r at (p+j, q-j+1), with
    x_i -> y_{i+1} and, for i >= 1, x_i -> y_i.  On its own axis the only
    surviving pair is x_0 -> y_r, one d_r living on pages 1..r; on the other
    axis each x_i cancels y_{i+1} within its level, so it is gone from E_1
    on.  It is acyclic, so H(Tot) is spanned by the lone cells (r, s) and
    the corners.  A corner (r, s) has x at (r, s+1) and x' at (r+1, s), both
    mapping to y at (r+1, s+1): one class of H^{r+s+1}, a combination of x
    and x' spread over two cells.  It survives at the cell of x on the
    column axis (x' cancels y within its column) and at the cell of x' on
    the row axis, so it lies in F^r and G^s only: the two filtrations are
    not opposite.
    """

    def __init__(self, zigzags, lones, corners=()):
        self.zigzags = zigzags
        self.lones = lones
        self.corners = corners

    @staticmethod
    def cell(axis, p, q):
        """Cell (r, s) of the axis coordinates (p, q); its own inverse."""
        return (p, q) if axis == COLUMN else (q, p)

    def survivors(self, axis):
        """The cell of every class of H(Tot) that survives on `axis`."""
        return list(self.lones) + [
            (r, s + 1) if axis == COLUMN else (r + 1, s)
            for r, s in self.corners]

    def page_dims(self, axis, page):
        dims = {}
        for a, p, q, r in self.zigzags:
            if a == axis and r >= page:
                for pq in ((p, q), (p + r, q - r + 1)):
                    dims[pq] = dims.get(pq, 0) + 1
        for c in self.survivors(axis):
            pq = self.cell(axis, *c)
            dims[pq] = dims.get(pq, 0) + 1
        return dims

    def d_ranks(self, axis):
        out = {}
        for a, p, q, r in self.zigzags:
            if a == axis:
                out[(r, p, q)] = out.get((r, p, q), 0) + 1
        return out

    def stable_page(self, axis):
        return 1 + max((r for a, _, _, r in self.zigzags if a == axis),
                       default=0)

    def filtration_dims(self, axis, n):
        levels = [self.cell(axis, *c)[0] for c in self.survivors(axis)
                  if sum(c) == n]
        return tuple(sum(1 for lv in levels if lv >= p)
                     for p in range(n + 2))


def random_zigzag_double_complex(rng, grid=4, pieces=6, corners=0):
    """Known-answer double complex on the (grid+1)^2 square: staircase
    zigzags of length 1..3 in random orientation plus lone cells, and
    `corners` corners, every cell conjugated by a random invertible matrix.
    Returns (K, Zigzags)."""
    zigzags, lones = [], []
    for _ in range(rng.randint(1, pieces)):
        if rng.random() < 0.75:
            r = rng.randint(1, min(3, grid))
            zigzags.append((rng.choice((COLUMN, ROW)),
                            rng.randint(0, grid - r),
                            rng.randint(r - 1, grid), r))
        else:
            lones.append((rng.randint(0, grid), rng.randint(0, grid)))
    corner_cells = [(rng.randint(0, grid - 1), rng.randint(0, grid - 1))
                    for _ in range(corners)]
    dims, arrows = {}, []

    def new(axis, p, q):
        c = Zigzags.cell(axis, p, q)
        dims[c] = dims.get(c, 0) + 1
        return c, dims[c] - 1

    for axis, p, q, r in zigzags:
        xs = [new(axis, p + i, q - i) for i in range(r)]
        ys = [None] + [new(axis, p + j, q - j + 1) for j in range(1, r + 1)]
        for i, x in enumerate(xs):
            arrows.append((x, ys[i + 1]))
            if i:
                arrows.append((x, ys[i]))
    for c in lones:
        new(COLUMN, *c)
    for r, s in corner_cells:
        y = new(COLUMN, r + 1, s + 1)
        arrows += [(new(COLUMN, r, s + 1), y), (new(COLUMN, r + 1, s), y)]
    raw = {}
    for (sc, si), (dc, di) in arrows:
        field = "horiz" if dc[0] == sc[0] + 1 else "vert"
        M = raw.setdefault((field, sc), [[Fraction(0)] * dims[sc]
                                         for _ in range(dims[dc])])
        M[di][si] = Fraction(rng.choice((-2, -1, 1, 2)))
    P = {c: _random_invertible(rng, d) for c, d in dims.items()}
    maps = {"horiz": {}, "vert": {}}
    for (field, (r, s)), M in raw.items():
        dst = (r + 1, s) if field == "horiz" else (r, s + 1)
        maps[field][(r, s)] = (to_rational(P[dst])
                               @ RatMatrix.from_rows(M, dims[(r, s)])
                               @ _rat_inverse(P[(r, s)]))
    K = double_complex(grid, grid, dims, maps["horiz"], maps["vert"])
    return K, Zigzags(zigzags, lones, corner_cells)


def random_int_matrix(rng, max_size=6, bound=20):
    r = rng.randint(0, max_size)
    c = rng.randint(0, max_size)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)], c)


def random_low_rank_matrix(rng, rows, cols, r, bound=4):
    """rows x cols integer matrix of rank <= r: a product of random factors."""
    L = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(rows)]
    R = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(r)]
    return IntMatrix.from_rows(
        [[sum(L[i][k] * R[k][j] for k in range(r)) for j in range(cols)]
         for i in range(rows)], cols)


def planted_int_matrix(rng, rows, cols, ops=3):
    """(A, t): A = U.diag(t).V, rows x cols, with U and V products of `ops`
    random elementary operations per row and column (row_i += c.row_j,
    column_j += c.column_i, c in +-1, +-2) and a shuffle of rows and
    columns, so the Smith diagonal of A is t, known without exhom.  t is a
    divisibility chain over 2, 3 and 5 with 1-3 zeros last: A is singular."""
    k = min(rows, cols)
    zeros = rng.randint(1, min(3, k))
    t, d = [], 1
    for _ in range(k - zeros):
        if rng.random() < 0.15:
            d *= rng.choice((2, 3, 5))
        t.append(d)
    t += [0] * zeros
    m = [[t[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    for _ in range(ops * rows):
        i, j = rng.sample(range(rows), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    for _ in range(ops * cols):
        i, j = rng.sample(range(cols), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in m:
            row[j] += c * row[i]
    rng.shuffle(m)
    perm = rng.sample(range(cols), cols)
    return IntMatrix.from_rows([[row[j] for j in perm] for row in m],
                               cols), tuple(t)


# ------------------------------------------------------ simplicial surfaces

# the 6-vertex real projective plane and the 7-vertex torus, by triangles
RP2 = tuple(tuple(map(int, t)) for t in
            "123 134 145 156 162 235 346 452 563 624".split())
TORUS = tuple(tuple(sorted(t)) for i in range(7)
              for t in ({i, (i + 1) % 7, (i + 3) % 7},
                        {i, (i + 2) % 7, (i + 3) % 7}))


def barycentric(triangles):
    """The triangles of the barycentric subdivision: its vertices are the
    faces (dim, vertices) of the surface, its triangles the flags vertex <
    edge < triangle."""
    return tuple(((0, (v,)), (1, e), (2, t))
                 for t in map(tuple, map(sorted, triangles))
                 for e in combinations(t, 2) for v in e)


def surface_chain(triangles) -> IntChainComplex:
    """The simplicial chain complex of a surface given by its triangles:
    d [v_0 < ... < v_k] is the sum of (-1)^i times the face without v_i,
    so every entry of d_1 and d_2 is -1, 0 or 1."""
    faces = [sorted({f for t in triangles
                     for f in combinations(sorted(t), k + 1)})
             for k in range(3)]
    diffs = {}
    for k in (1, 2):
        index = {f: i for i, f in enumerate(faces[k - 1])}
        m = [[0] * len(faces[k]) for _ in faces[k - 1]]
        for j, f in enumerate(faces[k]):
            for i in range(k + 1):
                m[index[f[:i] + f[i + 1:]]][j] = (-1) ** i
        diffs[k] = IntMatrix.from_rows(m, len(faces[k]))
    return int_chain_complex(0, dict(enumerate(map(len, faces))), diffs)


def eager_bareiss(A: IntMatrix, extra=()):
    """`zlinalg._bareiss` as it was before rows with 0 in the pivot column
    were left alone: every row below the pivot is updated at every step,
    (p.x - f.y) // prev, so each entry is a minor as soon as it is written."""
    rows, cols = A.rows, A.cols
    m = [list(A.row(i)) + [b[i] for b in extra] for i in range(rows)]
    sign, prev, piv = 1, 1, []
    for c in range(cols):
        r = len(piv)
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        top = m[r][c + 1:]
        p = m[r][c]
        for i in range(r + 1, rows):
            mi = m[i]
            f = mi[c]
            mi[c + 1:] = [(p * x - f * y) // prev
                          for x, y in zip(mi[c + 1:], top)]
        prev = p
        piv.append(c)
    return piv, sign * prev, m


def eager_smith_mod(A: IntMatrix, M: int, r: int) -> list[int]:
    """`zlinalg._smith_mod` as it was before it reduced only where a value
    is read: every entry is reduced mod M when the matrix is built and after
    every row operation, and M = 1 is eliminated like any other modulus."""
    rows, cols = A.rows, A.cols
    m = [[e % M for e in A.row(i)] for i in range(rows)]
    diag = []
    for t in range(min(rows, cols)):
        pos = next(((i, j) for j in range(t, cols) for i in range(t, rows)
                    if m[i][j]), None)
        if pos is None:
            break
        i, j = pos
        m[t], m[i] = m[i], m[t]
        if j != t:
            for row in m:
                row[t], row[j] = row[j], row[t]
        while True:
            top = m[t][t:]
            for i in range(t + 1, rows):
                mi = m[i]
                b = mi[t]
                if not b:
                    continue
                a = top[0]
                low = mi[t:]
                if b % a == 0:
                    q = b // a
                    mi[t:] = [(x - q * y) % M for x, y in zip(low, top)]
                    continue
                g, s, u = _xgcd(a, b)
                a, b = a // g, b // g
                top, mi[t:] = (
                    [(s * x + u * y) % M for x, y in zip(top, low)],
                    [(a * y - b * x) % M for x, y in zip(top, low)])
            m[t][t:] = top
            mt = m[t]
            for j in range(t + 1, cols):
                b = mt[j]
                if not b:
                    continue
                a = mt[t]
                if b % a == 0:
                    mt[j] = 0
                    continue
                g, s, u = _xgcd(a, b)
                a = a // g
                mt[t], mt[j] = g, 0
                for i in range(t + 1, rows):
                    y = m[i][j]
                    if y:
                        m[i][t], m[i][j] = u * y % M, a * y % M
                break
            else:
                break
        diag.append(gcd(m[t][t], M))
    xs = diag + [M] * (r - len(diag))
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            g = gcd(xs[i], xs[j])
            xs[i], xs[j] = g, xs[i] // g * xs[j]
    return xs[:r]


def kernel_lattice(A: IntMatrix):
    """Basis of the integer kernel {x in Z^cols : Ax = 0} (a saturated
    lattice): the columns of V over the zero diagonal of U.A.V = D."""
    snf = smith_normal_form(A)
    return [column(snf.V, j) for j in range(A.cols)
            if j >= len(snf.diagonal) or snf.diagonal[j] == 0]


def reference_homology_int(C: IntChainComplex, n: int) -> FinAbGroup:
    """H_n = ker d_n / im d_{n+1} through a basis of the kernel lattice: the
    columns of d_{n+1} are written over Q in that basis (integral, as the
    lattice is saturated) and the relation matrix is put in Smith form."""
    if C.dim(n) == 0:
        return FinAbGroup(0, ())
    kbasis = kernel_lattice(differential(C, n))
    k = len(kbasis)
    dnext = differential(C, n + 1)
    if k == 0 or dnext.cols == 0:
        return FinAbGroup(k, ())
    K = RatMatrix.from_rows([[Fraction(x) for x in row]
                             for row in zip(*kbasis)], k)
    # K has full column rank, so rref([K | d_{n+1}]) = [I | Y; 0 | 0] with
    # K Y = d_{n+1} exactly when every pivot lies in the K block
    R, pivots = rref(hstack(K, to_rational(dnext)))
    assert pivots == list(range(k)), f"image of d_{n + 1} not inside ker d_{n}"
    Y = [R.row(i)[k:] for i in range(k)]
    assert all(f.denominator == 1 for row in Y for f in row), \
        "non-integral coordinates"
    rel = IntMatrix.from_rows([[f.numerator for f in row] for row in Y],
                              dnext.cols)
    nonzero = [d for d in smith_normal_form(rel).diagonal if d]
    return FinAbGroup(k - len(nonzero), tuple(d for d in nonzero if d > 1))


def _reference_reduce(vec, chain, pivots, order):
    """While the low of vec (its first nonzero position in `order`) has a
    pivot (vector, chain, ...), subtract a multiple of the vector from vec
    and the same multiple of the chain from chain.  Returns (vec, chain,
    low), low None when vec reduced to zero."""
    while True:
        low = next((j for j in order if vec[j]), None)
        if low not in pivots:
            return vec, chain, low
        pvec, pchain = pivots[low][:2]
        f = vec[low] / pvec[low]
        vec = [a - f * b for a, b in zip(vec, pvec)]
        chain = [a - f * b for a, b in zip(chain, pchain)]


def reference_pairing(C: CochainComplex, levels, last: int):
    """The persistence pairing of `complexes._pairing` over `Fraction`:
    columns reduced by subtracting rational multiples, chains starting as
    e_i.  Same generators in the same order; each chain is a rational
    multiple of the fraction-free one."""
    gens = []
    killed = {}
    for n in range(C.min_deg, last + 1):
        src = levels.get(n) or [0] * C.dim(n)
        dst = levels.get(n + 1) or [0] * C.dim(n + 1)
        D = differential(C, n)
        order = sorted(range(len(dst)), key=lambda j: (dst[j], -j))
        pivots = {}  # low -> (column, chain, source level)
        for i in sorted(range(len(src)), key=lambda i: (-src[i], i)):
            if i in killed:
                col, _, level = killed[i]
                gens.append(_Generator(n, i, src[i], src[i] - level, False,
                                       tuple(col)))
                continue
            unit = [Fraction(int(j == i)) for j in range(len(src))]
            col, chain, low = _reference_reduce(list(D.entries[i::D.cols]),
                                                unit, pivots, order)
            if low is None:
                gens.append(_Generator(n, i, src[i], inf, False, tuple(chain)))
                continue
            pivots[low] = col, chain, src[i]
            gens.append(_Generator(n, i, src[i], dst[low] - src[i], True,
                                   tuple(chain)))
        killed = pivots
    return gens


def naive_composite(outer, inner):
    """outer @ inner by the textbook triple loop on the Fraction entries, or
    None when it is zero or a factor is absent: `_composite` without the
    product kernel."""
    if outer is None or inner is None:
        return None
    prod = RatMatrix(outer.rows, inner.cols, tuple(
        sum((outer[i, k] * inner[k, j] for k in range(outer.cols)), 0)
        for i in range(outer.rows) for j in range(inner.cols)))
    return prod if any(prod.nums) else None


def reference_defects(K, composite=_composite):
    """Every failed d'd' = 0, d''d'' = 0 and commuting-square check of K,
    one per cell and kind, as messages in the order `double_complex` checks
    them: cells (r, s) sorted and, within a cell, horiz, vert, square, each
    composite multiplied on its own by `composite`."""
    h, v = K.horiz.get, K.vert.get
    out = []
    for r, s in sorted(K.dims):
        if composite(h((r + 1, s)), h((r, s))) is not None:
            out.append(f"horiz composite nonzero at ({r},{s})")
        if composite(v((r, s + 1)), v((r, s))) is not None:
            out.append(f"vert composite nonzero at ({r},{s})")
        if (composite(v((r + 1, s)), h((r, s)))
                != composite(h((r, s + 1)), v((r, s)))):
            out.append(f"square does not commute at ({r},{s})")
    return out
