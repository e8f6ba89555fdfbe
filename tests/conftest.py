"""Shared randomized generators for the test suite.

Random complexes are built as direct sums of elementary two-term complexes
and lone summands, then conjugated by random invertible (over Q) or
unimodular (over Z) changes of basis so the matrices look generic while
d o d = 0 holds exactly.  Double complexes come from tensor bicomplexes of
two random complexes, which have commuting squares by construction, or from
staircase zigzags with known pages and filtrations: `Zigzags.sum_dim` counts
dim(F^p + G^q) class by class, with no basis of H^n built.

Also holds the kernel-lattice route to integral homology, which the library
used before it read H_n off invariant factors, the persistence pairing over
`Fraction`, which it used before the fraction-free one, the Bareiss pass
that rescales every row at every step, which it used before the lazy one,
the mod-M Smith elimination that reduces every entry it writes, which it
used before the one that reduces only where a value is read, the Smith
normal form that held U and V apart from A, which it used before it
carried them in one augmented matrix, and the rank
mod p on dense rows, which it used before it reduced the columns of the
store, and the Smith split on every row over every column, which it
used before the one that reads only the nonzero rows and columns: the
references `homology_int`, `complexes._pairing`, `zlinalg._bareiss`,
`zlinalg._smith_mod`, `zlinalg.smith_normal_form`, `zlinalg._rank_mod_p`
and `zlinalg._split_pivots` are tested against, and the per-cell composite
checks listing every failure, the first of which `spectral.double_complex`
raises, each composite a `RatMatrix` (`matrix_composite`) or a triple loop.
`page_representatives` pairs again with chains to give the representatives
of every cell of every page, which `spectral_pages` does not build;
`recount_pages` counts every page on its own, where `spectral_pages` shares
one dict from the stable page on, and `reference_ss_text` formats them cell
by cell, as `exhom ss` did before it rendered only the nonzero cells.
`reference_pages` assembles the pages by rescanning every generator for
each page, as `spectral_pages` did before it bucketed them once.
A double complex was held as its blocks, `Blocks`, before the library
kept only its total complex: `blocks` reads them back out of a Tot,
`reference_read` reads a document as the library did then, one store per
block, and `reference_total` totalizes the blocks.  The readers of a
document's text before the library read it without `re` and the `json`
package: `RATIONAL`, the regular expression of a rational written as a
string, read by `reference_rational`, and `reference_load_json`, which is
`json.loads` with the library's refusal messages.

And the rational subspace algebra the library used before `oppose` compared
filtrations by counts and integer ranks: `rref` (fraction-free on the
numerators), `rank`, canonical `Subspace`s with sum, intersection and
complement, and the stacking and vector product of `RatMatrix` they need.
`filtration_spaces`, `reference_opposite` and `reference_criterion` read a
`spectral.FiltrationChain` through it; `deligne_opposite` reads the
library's relative position of two chains instead.  A store has no
`Fraction` view, so the tests read its entries as Fractions through one
helper, `fraction_rows`.

And library code no subcommand reaches: the serializers, which write a
complex or a double complex back as a document (lowest-terms rationals with
the sign on the numerator, so a parse-serialize round trip is bit-stable),
the degreewise dual `hom_dual`, `cokernel_structure`, the Bareiss
`determinant`, `rank_mod_p` (`zlinalg._rank_mod_p` on the column store,
behind a primality test), the `column` of a store over den 1, `transpose`,
`degenerates_at` on spectral pages and `e2_dim`, one second-page
cell read off `steinberg._row`.  And the Ext labels `steinberg._row` sums
without naming them: `SteinbergLabel`, `delta`, `ext_dim`, and `ext_row`,
which builds a second-page row by brute force from them, the oracle `_row`
is tested against.

And simplicial complexes with known homology, whose boundary matrices hold
only -1, 0 and 1: the 6-vertex projective plane and the 7-vertex torus and
their barycentric subdivisions, and the Tits buildings of GL_n(F_q), the
order complexes of the proper nonzero subspaces of F_q^n, whole or of the
dimensions in a type set J, with the rank of their one reduced homology
group in closed form (`descent_weight`).
"""

import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, inf, lcm, prod
from typing import Iterable, List, Sequence, Tuple

from exhom._record import Record
from exhom.complexes import (
    CochainComplex,
    IntChainComplex,
    _Generator,
    _pairing,
    _totalize,
    cochain_complex,
    int_chain_complex,
)
from exhom.documents import (
    DocumentError,
    _cell_key,
    _dims_field,
    _entries,
    _load_object,
    _parse_matrix,
)
from exhom.qlinalg import RatMatrix
from exhom.spectral import (
    COLUMN,
    ROW,
    SpectralPages,
    _levels,
    _relative_position,
    double_complex,
)
from exhom.steinberg import InducedSpectrum, _row
from exhom.zlinalg import (
    FinAbGroup,
    SmithForm,
    _bareiss,
    _integral,
    _rank_mod_p,
    _xgcd,
    invariant_factors,
    is_prime,
    smith_normal_form,
)


# ------------------------------------------ rational subspace reference

def num_rows(M: RatMatrix) -> List[List[int]]:
    """M's numerators as fresh row lists, read off the columns: the tests'
    one dense reader, the library reading only the nonzero entries."""
    out = [[0] * M.cols for _ in range(M.rows)]
    for j, col in enumerate(M.columns):
        for i, x in col.items():
            out[i][j] = x
    return out


def fraction_rows(M: RatMatrix) -> List[List[Fraction]]:
    """M's entries as fresh row lists of Fractions: the tests' one dense
    rational reader, the library keeping only the column store."""
    return [[Fraction(x, M.den) for x in row] for row in num_rows(M)]


def dense(rows: int, cols: int, nums: Sequence, den=1) -> RatMatrix:
    """The matrix of row-major rational entries nums / den, any nonzero
    den, in lowest terms."""
    return RatMatrix.from_rows(
        [[Fraction(x) / den for x in nums[i * cols:(i + 1) * cols]]
         for i in range(rows)], cols)


def zero_matrix(rows: int, cols: int) -> RatMatrix:
    """The zero rows x cols matrix: the library builds none."""
    return RatMatrix.from_rows([[0] * cols for _ in range(rows)], cols)


def to_dense(chain: dict, n: int) -> tuple:
    """A sparse chain {index: value} as its n coordinates."""
    return tuple(chain.get(j, 0) for j in range(n))


def transpose(M: RatMatrix) -> RatMatrix:
    """The transpose of M."""
    rows = fraction_rows(M)
    return RatMatrix.from_rows([[r[j] for r in rows] for j in range(M.cols)],
                               M.rows)


def to_sparse(vector: Sequence) -> dict:
    """A vector as {index: value} of its nonzero coordinates."""
    return {j: x for j, x in enumerate(vector) if x}


def _over(M: RatMatrix, den: int) -> tuple:
    """M's numerators rescaled to the multiple `den` of its denominator."""
    k = den // M.den
    return tuple(k * x for row in num_rows(M) for x in row)


def vstack(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    if A.cols != B.cols:
        raise ValueError("column mismatch in vstack")
    den = lcm(A.den, B.den)
    return dense(A.rows + B.rows, A.cols, _over(A, den) + _over(B, den), den)


def hstack(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    if A.rows != B.rows:
        raise ValueError("row mismatch in hstack")
    den = lcm(A.den, B.den)
    a, b, c, e = _over(A, den), _over(B, den), A.cols, B.cols
    flat = []
    for i in range(A.rows):
        flat += a[i * c:(i + 1) * c]
        flat += b[i * e:(i + 1) * e]
    return dense(A.rows, c + e, tuple(flat), den)


def apply(M: RatMatrix, vector: Sequence) -> Tuple[Fraction, ...]:
    """M times a column vector, as a flat tuple."""
    v = tuple(Fraction(x) for x in vector)
    if len(v) != M.cols:
        raise ValueError("vector length mismatch")
    return tuple(row[0] for row in fraction_rows(M @ dense(len(v), 1, v)))


def rref(M: RatMatrix) -> Tuple[RatMatrix, List[int]]:
    """Reduced row echelon form of M, keeping dimensions.

    Returns (R, pivot_cols) with pivot columns in increasing order; the rank
    of M is the number of pivots.  The elimination is fraction-free on the
    numerators: a pivot p clears entry a of another row as (p/g) row - (a/g)
    pivot row, g = gcd(p, a), and every changed row is divided by its
    content.  Each pivot row is divided by its pivot only at the end, over
    the lcm of the pivots.
    """
    rows = num_rows(M)
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
    return dense(M.rows, M.cols, tuple(x for v in rows for x in v),
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
            return Subspace(ambient_dim, zero_matrix(0, ambient_dim))
        R, pivots = rref(RatMatrix.from_rows(vecs, ambient_dim))
        k = len(pivots)
        return Subspace(ambient_dim, dense(k, ambient_dim, tuple(
            x for row in num_rows(R)[:k] for x in row), R.den))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, zero_matrix(0, ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RatMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> List[Tuple[Fraction, ...]]:
        return list(map(tuple, fraction_rows(self.basis)))

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
    vecs, nums = [], num_rows(R)
    for f in free_cols:  # e_f minus column f of R on the pivots, times R.den
        v = [0] * M.cols
        v[f] = R.den
        for r, pc in enumerate(pivots):
            v[pc] = -nums[r][f]
        vecs.append(v)
    return Subspace.span(M.cols, vecs)


def subspace_sum(U: Subspace, W: Subspace) -> Subspace:
    """Canonical subspace spanned by both bases."""
    if U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.span(U.ambient_dim,
                         num_rows(U.basis) + num_rows(W.basis))


def subspace_intersect(U: Subspace, W: Subspace) -> Subspace:
    """Canonical intersection of two subspaces of the same ambient space."""
    if U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if U.dim == 0 or W.dim == 0:
        return Subspace.zero(U.ambient_dim)
    # a.B_U = -b.B_W lies in both: kernel of [B_U^T | B_W^T], take the a-part.
    K = kernel_basis(hstack(transpose(U.basis), transpose(W.basis))).basis
    A = dense(K.rows, U.dim,
              tuple(x for k in num_rows(K) for x in k[:U.dim]), K.den)
    return Subspace.span(U.ambient_dim, num_rows(A @ U.basis))


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
    rows = [to_dense(v, h) for v in F.rows] if F.rows is not None else [
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


def deligne_opposite(F, G) -> bool:
    """Deligne's criterion as a third verdict beside `opposite_check` and
    `reference_opposite`: F and G are n-opposite iff their relative
    position, `spectral._relative_position`, lies on p + q = n.  Asserts
    first that its row sums are F's graded dims, its column sums G's and
    its total dim H^n."""
    table, ps = _relative_position(F, G), range(F.n + 1)
    for side, chain in enumerate((F, G)):
        d = chain.dims()
        assert [sum(c for pq, c in table.items() if pq[side] == p)
                for p in ps] == [d[p] - d[p + 1] for p in ps]
    assert sum(table.values()) == F.ambient_dim
    return all(p + q == F.n for p, q in table)


# ---------------------------------------- code no subcommand reaches

def _format_rational(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _format_matrix(M: RatMatrix) -> list:
    return [[_format_rational(f) for f in row] for row in fraction_rows(M)]


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
    B = blocks(K)
    doc = {
        "max_r": K.max_r,
        "max_c": K.max_c,
        "dims": {f"{r},{s}": d for (r, s), d in sorted(K.dims.items())},
        "horiz": {f"{r},{s}": _format_matrix(M)
                  for (r, s), M in sorted(B.horiz.items())},
        "vert": {f"{r},{s}": _format_matrix(M)
                 for (r, s), M in sorted(B.vert.items())},
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def hom_dual(C: CochainComplex) -> CochainComplex:
    """Degreewise dual with transposed differentials, re-indexed as a cochain
    complex: dual^n = (C^{m-n})* for m = min_deg + max_deg."""
    m = C.min_deg + C.max_deg
    dims = {m - n: C.dim(n) for n in C.degrees()}
    # (d^n)^T : (C^{n+1})* -> (C^n)*, i.e. dual^{m-n-1} -> dual^{m-n}
    diffs = {m - n - 1: transpose(d) for n, d in C.differentials.items()}
    return cochain_complex(min(dims) if dims else 0, dims, diffs)


def cokernel_structure(A: RatMatrix) -> FinAbGroup:
    """Structure of Z^rows / image(A), A acting on column vectors."""
    nonzero = [d for d in invariant_factors(A) if d != 0]
    return FinAbGroup(free_rank=A.rows - len(nonzero),
                      torsion=tuple(d for d in nonzero if d > 1))


def determinant(A: RatMatrix) -> int:
    """Exact determinant of a store over den 1 via fraction-free (Bareiss)
    elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of non-square matrix")
    piv, minor, _ = _bareiss(num_rows(A))
    return minor if len(piv) == A.rows else 0


def rank_mod_p(A: RatMatrix, p: int) -> int:
    """Rank of the store A (den 1) over the field Z/p (p prime), by the
    library's column reduction."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return _rank_mod_p(A, p)


def column(A: RatMatrix, j: int) -> tuple:
    """The numerators of column j of A, dense."""
    return tuple(A.columns[j].get(i, 0) for i in range(A.rows))


def degenerates_at(P: SpectralPages, r: int) -> bool:
    """True iff every differential on pages >= r has rank zero."""
    return not any(rk and page >= r for (page, _, _), rk in P.d_ranks.items())


def e2_dim(d: int, dp: int, spectrum: InducedSpectrum, r: int, s: int) -> int:
    """Second-page dimension at (r, s), from row s alone."""
    return _row(d, dp, spectrum, s).get(r, 0)


def page_representatives(K, P: SpectralPages) -> dict:
    """{r: {(p, q): chains}}: the chains, in T^{p+q} coordinates, of the
    basis vectors P lists in each cell of each page, whose classes form a
    basis of E_r^{p,q}.  One pairing per degree n gives the degree-n chains,
    written out dense."""
    T, levels = K.total, _levels(K, P.filtration_axis)
    chains = {n: {g.i: to_dense(g.chain, T.dim(n))
                  for g in _pairing(T, levels, n) if g.n == n}
              for n in T.degrees()}
    return {r: {(p, q): tuple(chains[p + q][i] for i in ids)
                for (p, q), (_, ids) in grid.items()}
            for r, grid in P.pages.items()}


def recount_pages(K, axis: str) -> tuple[dict, int]:
    """({r: {(p, q): dim}}, stable page): every page 1..max_r + max_c + 2
    counted on its own from the generators of the pairing alive on it."""
    T = K.total
    gens = _pairing(T, _levels(K, axis), T.max_deg + 1)
    pages = {r: dict(Counter((g.level, g.n - g.level) for g in gens
                             if g.life >= r))
             for r in range(1, K.max_r + K.max_c + 3)}
    return pages, 1 + max((g.life for g in gens if g.source), default=0)


def reference_pages(K, axis: str) -> SpectralPages:
    """The `SpectralPages` of K as `spectral_pages` assembled them before it
    sorted the generators into buckets once: every page up to the stable
    one rescans every generator, the ids of a cell in the pairing's order,
    and the pages after it share the stable page's dict."""
    T = K.total
    gens = _pairing(T, _levels(K, axis), T.max_deg + 1)
    last = K.max_r + K.max_c + 1
    stable = 1 + max((g.life for g in gens if g.source), default=0)
    pages = {}
    for r in range(1, stable + 1):
        alive = {}
        for g in gens:
            if g.life >= r:
                alive.setdefault((g.level, g.n - g.level), []).append(g.i)
        pages[r] = {pq: (len(ids), tuple(ids)) for pq, ids in alive.items()}
    pages.update(dict.fromkeys(range(stable + 1, last + 2), pages[stable]))
    d_ranks = dict(Counter((g.life, g.level, g.n - g.level) for g in gens
                           if g.source and g.life))
    limit = {pq: dim for pq, (dim, _) in pages[stable].items()}
    return SpectralPages(axis, pages, d_ranks, limit, stable)


def reference_ss_text(K, axis: str, pages: bool) -> str:
    """The stdout of `exhom ss` on K, formatted cell by cell: one f-string
    and one lookup per cell of every page, from `recount_pages`."""
    grids, stable = recount_pages(K, axis)
    max_p, max_q = (K.max_r, K.max_c) if axis == COLUMN else (K.max_c,
                                                              K.max_r)
    cells = [(p, q) for p in range(max_p + 1) for q in range(max_q + 1)]
    lines = []
    if pages:
        for r, grid in sorted(grids.items()):
            lines.append(f"page {r}")
            lines += [f"{p} {q} {grid.get((p, q), 0)}" for p, q in cells]
    lines.append(f"limit (stable at page {stable})")
    lines += [f"{p} {q} {grids[max(grids)].get((p, q), 0)}"
              for p, q in cells]
    return "\n".join(lines) + "\n"


class SteinbergLabel(Record):
    """Subset I of {1..d} labelling a generalized Steinberg representation."""

    _fields = ("d", "subset")

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


# ------------------------------------------- a double complex as blocks

class Blocks(Record):
    """A double complex as the library held it before it kept only its
    total complex: the nonzero cells and the horizontal (to r+1) and
    vertical (to s+1) blocks, keyed by source cell."""

    _fields = ("max_r", "max_c", "dims", "horiz", "vert")


def blocks(K) -> Blocks:
    """The nonzero blocks of K read back out of its Tot: the block from
    cell c to cell t is the submatrix of D^{r+s} at the rows of t and the
    columns of c, times (-1)^r for a vertical one, in lowest terms."""
    offsets, total = {}, {}
    for (r, s), d in sorted(K.dims.items()):
        offsets[r, s] = total.get(r + s, 0)
        total[r + s] = offsets[r, s] + d
    maps = {"horiz": {}, "vert": {}}
    for (r, s), j in offsets.items():
        D = K.total.differentials.get(r + s)
        for name, t in (("horiz", (r + 1, s)), ("vert", (r, s + 1))):
            if D is None or t not in offsets:
                continue
            i, sign = offsets[t], -1 if name == "vert" and r & 1 else 1
            columns = tuple({k - i: sign * x for k, x in col.items()
                             if i <= k < i + K.dims[t]}
                            for col in D.columns[j:j + K.dims[r, s]])
            if any(columns):
                maps[name][r, s] = RatMatrix._lowest_terms(
                    K.dims[t], K.dims[r, s], columns, D.den)
    return Blocks(K.max_r, K.max_c, K.dims, maps["horiz"], maps["vert"])


def reference_total(B: Blocks) -> CochainComplex:
    """The total complex of the blocks, by `complexes._totalize`."""
    return _totalize(0, B.dims, B.horiz, B.vert)


def reference_read(text: str) -> Blocks:
    """A double complex document read as the library read it before it
    wrote the blocks straight into Tot: one `_parse_matrix` store per
    block, with every key, type and shape check and message, and none of
    the grid or D o D checks that follow them."""
    doc = _load_object(text)
    for key in ("max_r", "max_c"):
        if not isinstance(doc.get(key), int) or isinstance(doc.get(key), bool):
            raise DocumentError(f"missing or malformed '{key}'")
    dims, keys = _dims_field(doc, _cell_key)
    maps = {name: {(r, s): _parse_matrix(raw, dims.get((r + dr, s + ds), 0),
                                         dims.get((r, s), 0), f"{name}[{k}]")
                   for k, (r, s), raw in _entries(doc, name, _cell_key, keys)}
            for name, dr, ds in (("horiz", 1, 0), ("vert", 0, 1))}
    return Blocks(doc["max_r"], doc["max_c"], dims, maps["horiz"],
                  maps["vert"])


# ---------------------------------------------- a document's text, read

# An integer or "p/q", each with an optional sign: the one grammar of a
# rational written as a string, in documents and in `RatMatrix.from_rows`.
RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def reference_rational(text: str):
    """(p, q) of a string RATIONAL matches whole, q 1 for an integer, if
    q != 0, else None, read as `RatMatrix.from_rows` read it with the
    regular expression: a part past the int-string digit limit raises
    int's ValueError, q's first, and p is not read over q = 0."""
    m = RATIONAL.fullmatch(text)
    if m is None or not int(m[2] or 1):
        return None
    return int(m[1]), int(m[2] or 1)


def reference_load_json(text: str):
    """`json.loads(text)`, each refusal a DocumentError as the library
    words it."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    except ValueError:
        raise DocumentError("invalid JSON: an integer literal has too many "
                            "digits") from None


# ------------------------------------------------------------- generators

def differential(C, n: int):
    """d_n of C as a matrix, zero when the map is absent: the library keeps
    only the maps that are nonzero and never builds a zero one."""
    d = C.differentials.get(n)
    return zero_matrix(C.dim(n + C.step), C.dim(n)) if d is None else d


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


def _rat_inverse(M: RatMatrix) -> RatMatrix:
    """Inverse of an invertible integer M (den 1) by fraction-free
    Gauss-Jordan on [M | I] (Bareiss): after step c every entry is an
    integer minor, so the divisions by the previous pivot are exact, and
    [M | I] ends as [p.I | p.M^-1] for the last pivot p.  Fractions appear
    only there."""
    d = M.rows
    m = [row + [int(i == j) for j in range(d)]
         for i, row in enumerate(num_rows(M))]
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


def _random_invertible(rng, d, spread=2) -> RatMatrix:
    while True:
        M = RatMatrix.from_rows(
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
            diffs[n] = P[n + 1] @ dn @ _rat_inverse(P[n])
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
    return RatMatrix.from_rows(m, n)


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
    # invert each unimodular matrix exactly over Q; the result is integral
    Uinv = {n: _rat_inverse(M) if M.rows else zero_matrix(0, 0)
            for n, M in U.items()}
    diffs = {}
    for n in range(1, max_deg + 1):
        if dims[n] and dims[n - 1]:
            rows = [[0] * dims[n] for _ in range(dims[n - 1])]
            for d, kind, src, dst, mult in pieces:
                if kind == "arrow" and d == n:
                    rows[dst][src] = mult
            D = RatMatrix.from_rows(rows, dims[n])
            diffs[n] = U[n - 1] @ D @ Uinv[n]
    return int_chain_complex(0, dims, diffs)


def tensor_double_complex(C: CochainComplex, D: CochainComplex):
    """Tensor bicomplex K^{r,s} = C^r (x) D^s with commuting squares."""
    B = tensor_blocks(C, D)
    return double_complex(B.max_r, B.max_c, B.dims, B.horiz, B.vert)


def tensor_blocks(C: CochainComplex, D: CochainComplex) -> Blocks:
    """The `Blocks` of `tensor_double_complex`: a block for every pair of
    adjacent nonzero cells, zero or not."""
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
            ec, ed = fraction_rows(dc), fraction_rows(dd)
            if dims.get((r + 1, s)):
                rows = [[Fraction(0)] * (m * k) for _ in range(dc.rows * k)]
                for a in range(dc.rows):
                    for b in range(dc.cols):
                        if ec[a][b]:
                            for y in range(k):
                                rows[a * k + y][b * k + y] = ec[a][b]
                horiz[(r, s)] = RatMatrix.from_rows(rows, m * k)
            if dims.get((r, s + 1)):
                rows = [[Fraction(0)] * (m * k) for _ in range(m * dd.rows)]
                for x in range(m):
                    for a in range(dd.rows):
                        for b in range(dd.cols):
                            if ed[a][b]:
                                rows[x * dd.rows + a][x * dd.cols + b] = ed[a][b]
                vert[(r, s)] = RatMatrix.from_rows(rows, m * k)
    return Blocks(C.max_deg, D.max_deg, dims, horiz, vert)


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

    def classes(self, n):
        """(column level, row level) of each class of H^n: (r, s) for a
        lone cell (r, s) of degree n and for a corner (r, s) of degree
        n - 1, whose class lies in degree r + s + 1."""
        return [(r, s) for r, s in self.lones if r + s == n] + [
            (r, s) for r, s in self.corners if r + s + 1 == n]

    def sum_dim(self, n, p, q):
        """dim(F^p + G^q) in H^n, F the column and G the row filtration.
        Each class spans one summand of the direct sum, and each filtration
        is the sum of its pieces on the summands, so this counts the classes
        in F^p or in G^q; no basis of H^n is computed."""
        return sum(r >= p or s >= q for r, s in self.classes(n))

    def verdicts(self, n):
        """(`opposite_check`, `dimension_criterion`) of F and G on H^n from
        the counts alone."""
        h, ps = len(self.classes(n)), range(n + 2)
        f, g = self.filtration_dims(COLUMN, n), self.filtration_dims(ROW, n)
        spans = all(self.sum_dim(n, p, n + 1 - p) == h for p in ps)
        return (spans and all(f[p] + g[n + 1 - p] == h for p in ps),
                spans and all(f[p] + f[n + 1 - p] == h == g[p] + g[n + 1 - p]
                              for p in ps))


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
        maps[field][(r, s)] = (P[dst]
                               @ RatMatrix.from_rows(M, dims[(r, s)])
                               @ _rat_inverse(P[(r, s)]))
    K = double_complex(grid, grid, dims, maps["horiz"], maps["vert"])
    return K, Zigzags(zigzags, lones, corner_cells)


def rescale_cells(K, rng):
    """K on the basis e / p_c of each cell c, p_c a prime drawn per cell:
    a block from cell c to cell t becomes (p_t / p_c) times itself, so the
    blocks leaving the cells of one degree have coprime denominators and
    Tot is written over their lcm.  Squares still commute."""
    p = {c: rng.choice((2, 3, 5, 7, 11, 13)) for c in K.dims}

    def scaled(M, src, dst):
        k = Fraction(p[dst], p[src])
        return RatMatrix.from_rows([[k * x for x in row]
                                    for row in fraction_rows(M)], M.cols)

    B = blocks(K)
    return double_complex(K.max_r, K.max_c, K.dims, {
        (r, s): scaled(M, (r, s), (r + 1, s)) for (r, s), M in B.horiz.items()
    }, {(r, s): scaled(M, (r, s), (r, s + 1)) for (r, s), M in B.vert.items()})


def random_int_matrix(rng, max_size=6, bound=20):
    r = rng.randint(0, max_size)
    c = rng.randint(0, max_size)
    return RatMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)], c)


def random_low_rank_matrix(rng, rows, cols, r, bound=4):
    """rows x cols integer matrix of rank <= r: a product of random factors."""
    L = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(rows)]
    R = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(r)]
    return RatMatrix.from_rows(
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
    return RatMatrix.from_rows([[row[j] for j in perm] for row in m],
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


def simplicial_chain(simplices) -> IntChainComplex:
    """The simplicial chain complex of these simplices and all their faces,
    each a tuple of sortable vertices: d [v_0 < ... < v_k] is the sum of
    (-1)^i times the face without v_i, so every entry of every d_k is -1, 0
    or 1."""
    top = max(map(len, simplices), default=0)
    faces = [sorted({f for t in simplices
                     for f in combinations(sorted(t), k + 1)})
             for k in range(top)]
    diffs = {}
    for k in range(1, top):
        index = {f: i for i, f in enumerate(faces[k - 1])}
        diffs[k] = RatMatrix(len(faces[k - 1]), len(faces[k]), tuple(
            {index[f[:i] + f[i + 1:]]: (-1) ** i for i in range(k + 1)}
            for f in faces[k]))
    return int_chain_complex(0, dict(enumerate(map(len, faces))), diffs)


# ------------------------------------------------------------ Tits buildings

def subspaces(q: int, n: int) -> dict:
    """The proper nonzero subspaces of F_q^n, q prime, by dimension: each
    the bit mask of the vectors it holds, vector v being bit sum v_i q^i.
    One subspace per reduced row echelon form: pivot columns P, each basis
    row 1 at its pivot, 0 at the other pivots and left of its own, free
    elsewhere."""
    out = {}
    for k in range(1, n):
        out[k] = []
        for P in combinations(range(n), k):
            free = [(r, j) for r, c in enumerate(P) for j in range(c + 1, n)
                    if j not in P]
            for values in product(range(q), repeat=len(free)):
                basis = [[int(j == c) for j in range(n)] for c in P]
                for (r, j), x in zip(free, values):
                    basis[r][j] = x
                mask = 0
                for coeffs in product(range(q), repeat=k):
                    v = [sum(c * b[j] for c, b in zip(coeffs, basis)) % q
                         for j in range(n)]
                    mask |= 1 << sum(x * q ** j for j, x in enumerate(v))
                out[k].append(mask)
    return out


def building_chain(q: int, n: int, types=None) -> IntChainComplex:
    """The order complex of the proper nonzero subspaces of F_q^n (q prime)
    whose dimensions lie in `types` (all of 1..n-1 by default): the Tits
    building of GL_n(F_q), or its type-selected subcomplex.  A simplex is a
    flag V_1 < ... < V_k, its vertices (dim V_i, mask of V_i), so a face
    keeps the order by dimension that gives its signs."""
    types = sorted(types or range(1, n))
    spaces = subspaces(q, n)
    flags = [((types[0], m),) for m in spaces[types[0]]]
    for a, b in zip(types, types[1:]):
        above = {u: [(b, w) for w in spaces[b] if not u & ~w]
                 for u in spaces[a]}
        flags = [f + (w,) for f in flags for w in above[f[-1][1]]]
    return simplicial_chain(flags)


def descent_weight(q: int, n: int, types) -> int:
    """beta_J(q), J = `types`: the sum of q^inv(w) over the permutations w
    of 1..n whose descent set is J, the rank of the one reduced homology
    group of the type-J part of the building of GL_n(F_q) (Bjorner 1980,
    Stanley 1982; q^(n(n-1)/2) for the whole building, Solomon 1969)."""
    total = 0
    for w in permutations(range(n)):
        if {i + 1 for i in range(n - 1) if w[i] > w[i + 1]} == set(types):
            total += q ** sum(a > b for a, b in combinations(w, 2))
    return total


def flag_count(q: int, n: int, types) -> int:
    """alpha_J(q): the number of flags V_1 < ... < V_k in F_q^n with dims
    J = `types`, the q-multinomial [n]! / ([j_1]! [j_2 - j_1]! ... [n -
    j_k]!), [m]! = prod over i <= m of (q^i - 1) / (q - 1)."""
    def factorial(m):
        return prod((q ** i - 1) // (q - 1) for i in range(1, m + 1))
    cuts = [0, *sorted(types), n]
    return factorial(n) // prod(factorial(b - a) for a, b in zip(cuts,
                                                                 cuts[1:]))


def eager_bareiss(A: list[list[int]], extra=()):
    """`zlinalg._bareiss` as it was before rows with 0 in the pivot column
    were left alone: every row below the pivot is updated at every step,
    (p.x - f.y) // prev, so each entry is a minor as soon as it is written."""
    rows, cols = len(A), len(A[0]) if A else 0
    m = [row + [b[i] for b in extra] for i, row in enumerate(A)]
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


def eager_smith_mod(A: list[list[int]], M: int, r: int) -> list[int]:
    """`zlinalg._smith_mod` as it was before it reduced only where a value
    is read: every entry is reduced mod M when the matrix is built and after
    every row operation, and M = 1 is eliminated like any other modulus."""
    rows, cols = len(A), len(A[0]) if A else 0
    m = [[e % M for e in row] for row in A]
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


def reference_smith_normal_form(A: RatMatrix) -> SmithForm:
    """`zlinalg.smith_normal_form` as it was before it carried U and V in
    one augmented matrix: A, U and V as three matrices, held in step by
    four closures, the same operations in the same order."""
    _integral(A)
    rows, cols = A.rows, A.cols
    m = [[0] * cols for _ in range(rows)]
    for j, col in enumerate(A.columns):
        for i, x in col.items():
            m[i][j] = x
    u, v = ([[int(i == j) for j in range(n)] for i in range(n)]
            for n in (rows, cols))
    k = min(rows, cols)

    def row_op(i, t, q):  # row_i -= q * row_t
        m[i] = [a - q * b for a, b in zip(m[i], m[t])]
        u[i] = [a - q * b for a, b in zip(u[i], u[t])]

    def col_op(j, t, q):  # col_j -= q * col_t
        for r in range(rows):
            m[r][j] -= q * m[r][t]
        for r in range(cols):
            v[r][j] -= q * v[r][t]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    for t in range(k):
        while True:
            # the first nonzero entry of least |value| in m[t:, t:],
            # re-picked on every pass, keeps the growth polynomial
            pos = min(((i, j) for i in range(t, rows) for j in range(t, cols)
                       if m[i][j]), key=lambda ij: abs(m[ij[0]][ij[1]]),
                      default=None)
            if pos is None:
                break
            if pos != (t, t):
                swap_rows(t, pos[0])
                swap_cols(t, pos[1])
            # one reduction pass against the current (minimal) pivot
            changed = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    row_op(i, t, q)
                    if m[i][t] != 0:
                        changed = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    col_op(j, t, q)
                    if m[t][j] != 0:
                        changed = True
            if changed:
                continue  # leftover remainders are smaller; re-pick the pivot
            p = m[t][t]
            offender = next((i for i in range(t + 1, rows)
                             if any(x % p for x in m[i][t + 1:])), None)
            if offender is None:
                break
            row_op(t, offender, -1)  # add offending row to the pivot row

    # normalize diagonal signs
    for t in range(k):
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]

    U = RatMatrix.from_rows(u, rows)
    V = RatMatrix.from_rows(v, cols)
    D = RatMatrix.from_rows(m, cols)
    diagonal = tuple(m[t][t] for t in range(k))
    return SmithForm(U, D, V, diagonal)


def dense_rank_mod_p(A: RatMatrix, p: int) -> int:
    """`zlinalg._rank_mod_p` as it was before it reduced the columns of the
    store: rows of A reduced mod p into dense lists, each step
    popping a row, pivoting on its first nonzero entry and clearing that
    column from the rows that hold it; a row is dropped once it is zero."""
    m = [row for row in ([e % p for e in r] for r in num_rows(A)) if any(row)]
    r = 0
    while m:
        top = m.pop()
        c = next(j for j, x in enumerate(top) if x)
        inv = pow(top[c], -1, p)
        support = [(k, y) for k, y in enumerate(top) if y]
        kept = []
        for mi in m:
            if f := mi[c]:
                f = f * inv % p
                for k, y in support:
                    mi[k] = (mi[k] - f * y) % p
                if not any(mi):
                    continue
            kept.append(mi)
        m = kept
        r += 1
    return r


def reference_split_pivots(A: RatMatrix) -> tuple[list[int], list]:
    """`zlinalg._split_pivots` as it was before it read only the nonzero rows
    and columns of the store: every row densely over every column
    (`num_rows`), zero rows then dropped, and the zero columns of what is
    left dropped at the end."""
    m = {i: row for i, row in enumerate(num_rows(A)) if any(row)}
    todo, later, pivots = set(m), set(), []
    while todo or later:
        if todo:
            row = m[i := todo.pop()]
            if 1 in row:
                j = row.index(1)
            elif -1 in row:
                j = row.index(-1)
            else:
                later.add(i)
                continue
        else:
            row = m[i := later.pop()]
            p = gcd(*row)  # 0 on a zero row, which `0 in row` would pass
            if not p or (p not in row and -p not in row):
                continue
            j = row.index(p) if p in row else row.index(-p)
            if gcd(p, *[other[j] for other in m.values()]) != p:
                continue
        del m[i]
        pivots.append(abs(p := row[j]))
        support = [(k, y) for k, y in enumerate(row) if y]
        for h, other in m.items():
            if f := other[j]:
                q = f // p
                for k, y in support:
                    other[k] -= q * y
                todo.add(h)
                later.discard(h)
    rows = [row for row in m.values() if any(row)]
    keep = [j for j, col in enumerate(zip(*rows)) if any(col)]
    if len(keep) < A.cols:
        rows = [[row[j] for j in keep] for row in rows]
    return pivots, rows


def kernel_lattice(A: RatMatrix):
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
    R, pivots = rref(hstack(K, dnext))
    assert pivots == list(range(k)), f"image of d_{n + 1} not inside ker d_{n}"
    Y = [row[k:] for row in fraction_rows(R)[:k]]
    assert all(f.denominator == 1 for row in Y for f in row), \
        "non-integral coordinates"
    rel = RatMatrix.from_rows(Y, dnext.cols)
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
        D = fraction_rows(differential(C, n))
        order = sorted(range(len(dst)), key=lambda j: (dst[j], -j))
        pivots = {}  # low -> (column, chain, source level)
        for i in sorted(range(len(src)), key=lambda i: (-src[i], i)):
            if i in killed:
                col, _, level = killed[i]
                gens.append(_Generator((n, i, src[i], src[i] - level, False,
                                        tuple(col))))
                continue
            unit = [Fraction(int(j == i)) for j in range(len(src))]
            col, chain, low = _reference_reduce([row[i] for row in D],
                                                unit, pivots, order)
            if low is None:
                gens.append(_Generator((n, i, src[i], inf, False,
                                        tuple(chain))))
                continue
            pivots[low] = col, chain, src[i]
            gens.append(_Generator((n, i, src[i], dst[low] - src[i], True,
                                    tuple(chain))))
        killed = pivots
    return gens


def matrix_composite(outer, inner):
    """outer @ inner as a `RatMatrix` in lowest terms, or None when it is
    zero or a factor is absent: one matrix per composite, built and
    normalized, which `double_complex` compared before it compared the raw
    numerator products."""
    if outer is None or inner is None:
        return None
    prod = outer @ inner
    return prod if any(prod.columns) else None


def naive_composite(outer, inner):
    """outer @ inner by the textbook triple loop on the Fraction entries, or
    None when it is zero or a factor is absent: `matrix_composite` without
    the product kernel."""
    if outer is None or inner is None:
        return None
    a, b = fraction_rows(outer), fraction_rows(inner)
    prod = dense(outer.rows, inner.cols, tuple(
        sum((a[i][k] * b[k][j] for k in range(outer.cols)), 0)
        for i in range(outer.rows) for j in range(inner.cols)))
    return prod if any(prod.columns) else None


def reference_defects(K, composite=matrix_composite):
    """Every failed d'd' = 0, d''d'' = 0 and commuting-square check of the
    `Blocks` K, one per cell and kind, as messages in the order
    `double_complex` ranks them: cells (r, s) sorted and, within a cell,
    horiz, vert, square, each composite multiplied on its own by
    `composite`, as `double_complex` checked them before it checked D o D
    on Tot."""
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
