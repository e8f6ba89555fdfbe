"""Exact linear algebra over the rationals: the column store.

A `RatMatrix` is sparse and column-major: column j is a dict `columns[j]`
{row: numerator} of its nonzero entries, all over one positive denominator
`den`, and it is the one matrix type: an integer matrix is a store over
den 1.  The document parser writes it once, and every later layer reads
only its nonzero entries: the d o d checks, the totalization
and the persistence pairing (`complexes`, `spectral`), and `zlinalg`
(its columns mod p for the rank mod p, dense rows over the nonzero rows
and columns for the Smith split).  The store is the only representation: it
has no dense reader, and no module of the library imports `fractions`.

Every product goes through one kernel, `_products`: column j of A.B sums,
over the entries v at row k of B's column j, v times A's column k, so a
product costs its nonzero products, and an entry that cancels is dropped.
A rational product is that kernel on the numerators, over the product of
the two denominators, reduced to lowest terms.  Ranks and eliminations are
integer and live elsewhere: the persistence pairing in `complexes`, Bareiss
in `zlinalg`.
"""

from math import gcd, lcm

from ._record import Record


def _rational(text: str) -> tuple[int, int] | None:
    """(p, q) of a string in the one grammar of a rational as a string, in
    documents and in `RatMatrix.from_rows`: [-+]?[0-9]+(/[0-9]+)? with
    q != 0; else None.  int's ValueError past the digit limit, q's first."""
    p, slash, q = text.partition("/")
    digits = p[1:] if p[:1] in ("+", "-") else p
    if digits.isdigit() and digits.isascii() and (
            not slash or q.isdigit() and q.isascii()):
        q = int(q) if slash else 1
        if q:
            return int(p), q
    return None


def _products(left, right):
    """The columns, one at a time, of the product of the numerators of two
    column stores, `left` holding the columns of the left factor: column j
    is the sum over v = right[j][k] of v times left[k], without its zeros."""
    for col in right:
        acc: dict[int, int] = {}
        for k, v in col.items():
            for i, a in left[k].items():
                acc[i] = acc.get(i, 0) + a * v
        yield {i: x for i, x in acc.items() if x} if 0 in acc.values() \
            else acc


class RatMatrix(Record):
    """Sparse rational matrix: entry (i, j) is columns[j].get(i, 0) / den,
    den > 0; a column holds only its nonzero numerators, keyed by rows
    below `rows`.  Products and `from_rows` give lowest terms, gcd(den,
    *numerators) = 1, so equal matrices built by them are equal values."""

    _fields, _defaults = ("rows", "cols", "columns", "den"), (1,)

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.columns) != self.cols or self.den < 1:
            raise ValueError(f"{len(self.columns)} columns over {self.den} "
                             f"for a {self.rows}x{self.cols} matrix")

    @classmethod
    def from_rows(cls, data, cols: int | None = None):
        """The matrix of these rows of rational entries (any
        `numbers.Rational`: ints, bools, Fractions; or strings in the
        document grammar `_rational`), each read as the integer pair of its
        numerator and denominator, put over the lcm of the denominators and
        then reduced to lowest terms.  Any other entry, a float or a string
        such as "1e3", "1.5" or " 3 " among them, is refused with a
        ValueError rather than read as its binary fraction or as a decimal,
        whose exponents can take unbounded time."""
        def entry(x):
            if isinstance(x, str):
                if pq := _rational(x):  # past the digit limit int raises
                    return pq
            elif isinstance(x, int):
                return x.numerator, x.denominator
            else:  # `numbers` loads only for an entry not int or str
                from numbers import Rational
                if isinstance(x, Rational):
                    return x.numerator, x.denominator
            raise ValueError(f"matrix entries must be rational, got {x!r}")

        data = [[entry(x) for x in r] for r in data]
        if cols is None:
            cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        den = lcm(*[q for r in data for _, q in r])
        return cls._lowest_terms(len(data), cols, tuple(
            {i: r[j][0] * (den // r[j][1]) for i, r in enumerate(data)
             if r[j][0]} for j in range(cols)), den)

    @classmethod
    def identity(cls, n: int):
        return cls(n, n, tuple({j: 1} for j in range(n)))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        return RatMatrix._lowest_terms(
            self.rows, other.cols,
            tuple(_products(self.columns, other.columns)),
            self.den * other.den)

    @classmethod
    def _lowest_terms(cls, rows: int, cols: int, columns: tuple, den: int):
        """The store of these columns over den, divided once by the gcd of
        den and every numerator."""
        g = gcd(den, *[x for col in columns for x in col.values()])
        if g > 1:
            columns = tuple({i: x // g for i, x in col.items()}
                            for col in columns)
        return cls(rows, cols, columns, den // g)
