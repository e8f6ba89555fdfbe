"""Exact linear algebra over the rationals.

`RatMatrix` stores integer numerators over one positive denominator, in
lowest terms, so two equal matrices are equal values; its ``Fraction``
entries are a view built only when read.  Every operation is exact; there is
no floating point anywhere in this module.  The integer storage, row access
and shape checks live in `_Dense`, which `zlinalg.IntMatrix` shares.

Every product goes through one kernel, `_int_products`: nonzero rows times
nonzero stride-slice columns, ``sum(map(mul, row, col))`` per entry.  An
integer product is that kernel's output; a rational product is the same
kernel on the stored numerators, over the product of the two denominators,
reduced to lowest terms.  Ranks and eliminations are integer and live
elsewhere: the persistence pairing in `complexes`, Bareiss in `zlinalg`.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from math import gcd, lcm
from operator import mul

from ._record import Record, _set


def _columns(entries: Sequence, cols: int) -> list[Sequence]:
    """Columns of a row-major matrix with `cols` columns, as stride slices."""
    return [entries[j::cols] for j in range(cols)]


def _int_products(rows: Sequence[Sequence[int]],
                  cols: Sequence[Sequence[int]]) -> list[int]:
    """Row-major entries of the product whose factors have these integer
    rows and columns: the kernel of every dense product, integer or
    rational.  Only nonzero rows times nonzero columns are summed; every
    other entry is 0."""
    live = [c if any(c) else None for c in cols]
    blank = [0] * len(cols)
    out: list[int] = []
    for r in rows:
        out += [0 if c is None else sum(map(mul, r, c))
                for c in live] if any(r) else blank
    return out


class _Dense(Record):
    """Dense matrix, row-major, immutable: the integer storage `nums`, shape
    checks and row access of `RatMatrix` and `zlinalg.IntMatrix`.  Each
    subclass's `__post_init__` coerces the entries it is given to ints, and
    its `entries` are what row access reads."""

    _fields = ("rows", "cols", "nums")

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

    def _num_rows(self) -> list[tuple]:
        """The rows of `nums`."""
        c = self.cols
        return [self.nums[i * c:(i + 1) * c] for i in range(self.rows)]

    def __getitem__(self, rc: tuple[int, int]):
        i, j = rc
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        nums = tuple(x for c in _columns(self.nums, self.cols) for x in c)
        return self.replace(rows=self.cols, cols=self.rows, nums=nums)


class RatMatrix(_Dense):
    """Dense rational matrix: entry k is nums[k] / den, with den > 0 and
    gcd(den, *nums) = 1.  The constructor takes any rational entries (ints,
    Fractions, "p/q" strings) over any nonzero den and reduces them;
    `entries` is the Fraction view, which imports `fractions` on first
    read."""

    _fields, _defaults = ("rows", "cols", "nums", "den"), (1,)

    def __post_init__(self):
        super().__post_init__()
        nums, den = self.nums, self.den
        if not set(map(type, nums)) <= {int}:
            from fractions import Fraction
            fracs = [x if isinstance(x, Fraction) else Fraction(x)
                     for x in nums]
            d = lcm(*[f.denominator for f in fracs])
            nums = tuple(f.numerator * (d // f.denominator) for f in fracs)
            den *= d
        if den != 1:
            g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
            if g != 1:
                nums = tuple(x // g for x in nums)
                den //= g
        _set(self, "nums", tuple(nums))
        _set(self, "den", den)

    @cached_property
    def entries(self) -> tuple:
        from fractions import Fraction
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        return RatMatrix(self.rows, other.cols, tuple(_int_products(
            self._num_rows(), _columns(other.nums, other.cols))),
            self.den * other.den)
