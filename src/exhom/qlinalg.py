"""Exact linear algebra over the rationals.

`RatMatrix` stores integer numerators over one positive denominator, in
lowest terms, so two equal matrices are equal values; its ``Fraction``
entries are a view built only when read.  Every operation is exact; there is
no floating point anywhere in this module.  The integer storage, row access
and shape checks live in `_Dense`, which `zlinalg.IntMatrix` shares.
Subspaces are stored as reduced row echelon bases with zero rows dropped, so
two equal subspaces are equal as values.

Integer products go through one kernel, `_int_products`: nonzero rows times
nonzero stride-slice columns, ``sum(map(mul, row, col))`` per entry.  A
rational product sums the same way on the stored numerators, piece by piece:
the inner index is cut at the first and last nonzero position of every row
and column, each piece of a row or column has its content divided out, and
the two denominators multiply.  `rref` eliminates fraction-free on the
numerators and divides by the pivots once, over their lcm, so the subspace
algebra builds no `Fraction` either.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from math import gcd, lcm
from operator import mul
from typing import Iterable, List, Sequence, Tuple


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _columns(entries: Sequence, cols: int) -> List[Sequence]:
    """Columns of a row-major matrix with `cols` columns, as stride slices."""
    return [entries[j::cols] for j in range(cols)]


def _span(v: Sequence[int]) -> Tuple[int, int]:
    """(first nonzero position, last nonzero position + 1) of a nonzero v."""
    n = len(v)
    return (0 if v[0] else next(compress(count(), v)),
            n if v[-1] else n - next(compress(count(), reversed(v))))


def _content(v: Sequence[int]) -> Tuple[Sequence[int], int]:
    """(w, g) with v = g w and g the gcd of v's entries (0 for v = 0)."""
    g = gcd(*v)
    return (v, g) if g < 2 else (tuple(x // g for x in v), g)


def _int_products(rows: Sequence[Sequence[int]],
                  cols: Sequence[Sequence[int]]) -> List[int]:
    """Row-major entries of the product whose factors have these integer
    rows and columns: the kernel of every dense integer product.  Only
    nonzero rows times nonzero columns are summed; every other entry is 0."""
    live = [c if any(c) else None for c in cols]
    blank = [0] * len(cols)
    out: List[int] = []
    for r in rows:
        out += [0 if c is None else sum(map(mul, r, c))
                for c in live] if any(r) else blank
    return out


@dataclass(frozen=True)
class _Dense:
    """Dense matrix, row-major, immutable: the integer storage `nums`, shape
    checks and row access of `RatMatrix` and `zlinalg.IntMatrix`.  Each
    subclass's constructor coerces the entries it is given to ints, and its
    `entries` are what row access reads."""

    rows: int
    cols: int
    nums: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.nums) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.nums)} != {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, data: Sequence[Sequence], cols: int | None = None):
        data = [list(r) for r in data]
        if cols is None:
            cols = len(data[0]) if data else 0
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
        return cls(len(data), cols, tuple(x for r in data for x in r))

    @classmethod
    def zero(cls, rows: int, cols: int):
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int):
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    def _num_rows(self) -> List[tuple]:
        """The rows of `nums`."""
        c = self.cols
        return [self.nums[i * c:(i + 1) * c] for i in range(self.rows)]

    def __getitem__(self, rc: Tuple[int, int]):
        i, j = rc
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self) -> List[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return replace(self, rows=self.cols, cols=self.rows,
                       nums=tuple(x for c in _columns(self.nums, self.cols)
                                  for x in c))


@dataclass(frozen=True)
class RatMatrix(_Dense):
    """Dense rational matrix: entry k is nums[k] / den, with den > 0 and
    gcd(den, *nums) = 1.  The constructor takes any rational entries (ints,
    Fractions, "p/q" strings) over any nonzero den and reduces them;
    `entries` is the Fraction view."""

    den: int = 1

    def __post_init__(self):
        super().__post_init__()
        nums, den = self.nums, self.den
        if not set(map(type, nums)) <= {int}:
            fracs = tuple(map(_frac, nums))
            d = lcm(*[f.denominator for f in fracs])
            nums = tuple(f.numerator * (d // f.denominator) for f in fracs)
            den *= d
        if den != 1:
            g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
            if g != 1:
                nums = tuple(x // g for x in nums)
                den //= g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @cached_property
    def entries(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        """The inner index is cut at the first and last nonzero positions of
        every row and column; on each piece the rows and columns that meet
        it are multiplied with their content divided out, entry (i, j)
        gaining g h (u . w).  A row of a total differential meets one or two
        blocks, so its pieces are block rows, whose denominators the
        content removes, and no row or column is summed outside its span."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        m = other.cols
        sides = [[(k, v, *_span(v)) for k, v in enumerate(vs) if any(v)]
                 for vs in (self._num_rows(), _columns(other.nums, m))]
        cuts = sorted({x for side in sides for *_, a, b in side
                       for x in (a, b)})
        first = {x: t for t, x in enumerate(cuts)}
        pieces = [([], []) for _ in cuts[1:]]
        for s, side in enumerate(sides):
            for k, v, a, b in side:
                t = first[a]
                while cuts[t] < b:
                    w, g = _content(v[cuts[t]:cuts[t + 1]])
                    if g:
                        pieces[t][s].append((k, w, g))
                    t += 1
        dots = [0] * (self.rows * m)
        for rows, cols in pieces:
            for i, u, g in rows:
                at = i * m
                for j, w, h in cols:
                    t = sum(map(mul, u, w))
                    if t:
                        dots[at + j] += t * g * h
        return RatMatrix(self.rows, m, tuple(dots), self.den * other.den)

    def _over(self, den: int) -> tuple:
        """nums rescaled to the multiple `den` of this denominator."""
        k = den // self.den
        return self.nums if k == 1 else tuple(k * x for x in self.nums)

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        den = lcm(self.den, other.den)
        return RatMatrix(self.rows + other.rows, self.cols,
                         self._over(den) + other._over(den), den)

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        den = lcm(self.den, other.den)
        a, b, c, e = self._over(den), other._over(den), self.cols, other.cols
        flat = []
        for i in range(self.rows):
            flat += a[i * c:(i + 1) * c]
            flat += b[i * e:(i + 1) * e]
        return RatMatrix(self.rows, c + e, tuple(flat), den)

    def apply(self, vector: Sequence) -> Tuple[Fraction, ...]:
        """Matrix times column vector, returned as a flat tuple."""
        v = tuple(_frac(x) for x in vector)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return (self @ RatMatrix(len(v), 1, v)).entries


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
    """Linear subspace of Q^ambient_dim in canonical (RREF, no zero rows) form."""

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
        v = [_frac(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        stacked = self.basis.vstack(RatMatrix.from_rows([v], self.ambient_dim))
        return rank(stacked) == self.dim

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if other.dim == 0:
            return True
        return rank(self.basis.vstack(other.basis)) == self.dim


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
    K = kernel_basis(U.basis.transpose().hstack(W.basis.transpose())).basis
    A = RatMatrix(K.rows, U.dim,
                  tuple(x for k in K._num_rows() for x in k[:U.dim]), K.den)
    return Subspace.span(U.ambient_dim, (A @ U.basis)._num_rows())


def is_complementary(U: Subspace, W: Subspace) -> bool:
    """True iff U and W intersect trivially and together span the ambient space."""
    if U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if U.dim + W.dim != U.ambient_dim:
        return False
    return subspace_intersect(U, W).dim == 0
