"""Exact linear algebra over the rationals.

`RatMatrix` carries arbitrary-precision ``Fraction`` entries and every
operation is exact; there is no floating point anywhere in this module.  Its
row-major storage and shape checks live in `_Dense`, which `zlinalg.IntMatrix`
shares.  Subspaces are stored as reduced row echelon bases with zero rows
dropped, so two equal subspaces are equal as values.

Every dense product goes through one integer kernel, `_int_products`: rows
times stride-slice columns, ``sum(map(mul, row, col))`` per entry.  A
rational product first writes each row and column as an integer vector over
its lcm denominator, and builds a Fraction only for a nonzero dot product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, List, Sequence, Tuple

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _columns(entries: Sequence, cols: int) -> List[Sequence]:
    """Columns of a row-major matrix with `cols` columns, as stride slices."""
    return [entries[j::cols] for j in range(cols)]


def _int_products(rows: Sequence[Sequence[int]],
                  cols: Sequence[Sequence[int]]) -> List[int]:
    """Row-major entries of the product whose factors have these integer
    rows and columns: the one kernel of every dense exact product.  Only
    nonzero rows times nonzero columns are summed; every other entry is 0."""
    live = [c if any(c) else None for c in cols]
    blank = [0] * len(cols)
    out: List[int] = []
    for r in rows:
        out += [0 if c is None else sum(map(mul, r, c))
                for c in live] if any(r) else blank
    return out


def _integral(vector: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(v, d) with v an integer vector and d > 0 such that vector = v / d."""
    d = lcm(*[f.denominator for f in vector])
    return [f.numerator * (d // f.denominator) for f in vector], d


@dataclass(frozen=True)
class _Dense:
    """Dense matrix, row-major, immutable: the storage and shape checks of
    `RatMatrix` and `zlinalg.IntMatrix`, each naming its entry coercion."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, data: Sequence[Sequence], cols: int | None = None):
        data = [list(r) for r in data]
        if cols is None:
            cols = len(data[0]) if data else 0
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
        return cls(len(data), cols,
                   tuple(cls._coerce(x) for r in data for x in r))

    @classmethod
    def zero(cls, rows: int, cols: int):
        return cls(rows, cols, (cls._coerce(0),) * (rows * cols))

    @classmethod
    def identity(cls, n: int):
        one, zero = cls._coerce(1), cls._coerce(0)
        return cls(n, n, tuple(one if i == j else zero
                               for i in range(n) for j in range(n)))

    def __getitem__(self, rc: Tuple[int, int]):
        i, j = rc
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self) -> List[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return type(self)(self.cols, self.rows,
                          tuple(x for c in _columns(self.entries, self.cols)
                                for x in c))


@dataclass(frozen=True)
class RatMatrix(_Dense):
    """Dense rational matrix: `Fraction` entries."""

    _coerce = staticmethod(_frac)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        rows = [_integral(self.row(i)) for i in range(self.rows)]
        cols = [_integral(c) for c in _columns(other.entries, other.cols)]
        dots = _int_products([r for r, _ in rows], [c for c, _ in cols])
        dens = [dr * dc for _, dr in rows for _, dc in cols]
        return RatMatrix(self.rows, other.cols,
                         tuple(Fraction(t, d) if t else _ZERO
                               for t, d in zip(dots, dens)))

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return RatMatrix(self.rows + other.rows, self.cols,
                         self.entries + other.entries)

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        flat = []
        for i in range(self.rows):
            flat.extend(self.row(i))
            flat.extend(other.row(i))
        return RatMatrix(self.rows, self.cols + other.cols, tuple(flat))

    def apply(self, vector: Sequence) -> Tuple[Fraction, ...]:
        """Matrix times column vector, returned as a flat tuple."""
        v = tuple(_frac(x) for x in vector)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return (self @ RatMatrix(len(v), 1, v)).entries


def rref(M: RatMatrix) -> Tuple[RatMatrix, List[int]]:
    """Reduced row echelon form of M, keeping dimensions.

    Returns (R, pivot_cols) with pivot columns in increasing order; the rank
    of M is the number of pivots.
    """
    rows = M.to_lists()
    pivots: List[int] = []
    r = 0
    for c in range(M.cols):
        if r == M.rows:
            break
        pr = next((i for i in range(r, M.rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(M.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return RatMatrix.from_rows(rows, M.cols), pivots


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
        basis = RatMatrix.from_rows([R.row(i) for i in range(len(pivots))],
                                    ambient_dim)
        return Subspace(ambient_dim, basis)

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
    for f in free_cols:
        v = [Fraction(0)] * M.cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r, f]
        vecs.append(v)
    return Subspace.span(M.cols, vecs)


def subspace_sum(U: Subspace, W: Subspace) -> Subspace:
    """Canonical subspace spanned by both bases."""
    if U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.span(U.ambient_dim, U.vectors() + W.vectors())


def subspace_intersect(U: Subspace, W: Subspace) -> Subspace:
    """Canonical intersection of two subspaces of the same ambient space."""
    if U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if U.dim == 0 or W.dim == 0:
        return Subspace.zero(U.ambient_dim)
    # a.B_U = -b.B_W lies in both: kernel of [B_U^T | B_W^T], take the a-part.
    K = kernel_basis(U.basis.transpose().hstack(W.basis.transpose()))
    A = RatMatrix(K.dim, U.dim, tuple(x for k in K.vectors() for x in k[:U.dim]))
    return Subspace.span(U.ambient_dim, (A @ U.basis).to_lists())


def is_complementary(U: Subspace, W: Subspace) -> bool:
    """True iff U and W intersect trivially and together span the ambient space."""
    if U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if U.dim + W.dim != U.ambient_dim:
        return False
    return subspace_intersect(U, W).dim == 0
