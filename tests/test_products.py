"""The column product kernel against a naive triple loop, and the checks
built on it (d o d = 0, double complex composites and squares) keeping
their messages."""

import json
import random
from fractions import Fraction

import pytest

from conftest import (
    Blocks,
    apply,
    column,
    dense,
    differential,
    fraction_rows,
    random_cochain,
    random_dense_cochain,
    random_double_complex,
    reference_defects,
    tensor_blocks,
    transpose,
    zero_matrix,
)
from exhom.documents import (
    DocumentError,
    parse_chain_document,
    parse_cochain_document,
    parse_double_complex_document,
)
from exhom.qlinalg import RatMatrix, _products
from exhom.spectral import (
    DoubleComplexError,
    double_complex,
)


def naive_product(a, b):
    """Row-major entries of a @ b by the textbook triple loop."""
    x, y = fraction_rows(a), fraction_rows(b)
    return [sum((x[i][k] * y[k][j] for k in range(a.cols)), 0)
            for i in range(a.rows) for j in range(b.cols)]


def int_numerators(M):
    return all(type(x) is int for col in M.columns for x in col.values())


def random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7)))


def random_shapes(rng, count):
    """(n, m, p) shapes, the first ones with a zero in every position."""
    yield from [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0), (1, 1, 1)]
    for _ in range(count):
        yield rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)


def test_int_product_matches_triple_loop():
    rng = random.Random(41)
    for n, m, p in random_shapes(rng, 150):
        a = dense(n, m, tuple(rng.randint(-30, 30) for _ in range(n * m)))
        b = dense(m, p, tuple(rng.randint(-30, 30) for _ in range(m * p)))
        prod = a @ b
        assert (prod.rows, prod.cols, prod.den) == (n, p, 1)
        assert prod == dense(n, p, tuple(naive_product(a, b)))
        assert int_numerators(prod)


def test_rational_product_matches_triple_loop():
    rng = random.Random(42)
    for n, m, p in random_shapes(rng, 150):
        a = dense(n, m, tuple(random_rational(rng) for _ in range(n * m)))
        b = dense(m, p, tuple(random_rational(rng) for _ in range(m * p)))
        prod = a @ b
        assert (prod.rows, prod.cols) == (n, p)
        assert prod == dense(n, p, tuple(naive_product(a, b)))
        assert int_numerators(prod)


def with_zero_lines(rng, rows, cols, entry, zero):
    """rows x cols entries, row-major, each row and each column zero with
    probability 1/3 and the rest drawn from entry(rng)."""
    zr = {i for i in range(rows) if rng.random() < 1 / 3}
    zc = {j for j in range(cols) if rng.random() < 1 / 3}
    return tuple(zero if i in zr or j in zc else entry(rng)
                 for i in range(rows) for j in range(cols))


def test_products_with_zero_rows_and_columns_match_triple_loop():
    rng = random.Random(43)
    for n, m, p in random_shapes(rng, 150):
        a = dense(n, m, with_zero_lines(
            rng, n, m, lambda r: r.randint(-30, 30), 0))
        b = dense(m, p, with_zero_lines(
            rng, m, p, lambda r: r.randint(-30, 30), 0))
        want = dense(n, p, tuple(naive_product(a, b)))
        assert tuple(_products(a.columns, b.columns)) == want.columns
        assert a @ b == want
        x = dense(n, m, with_zero_lines(rng, n, m, random_rational,
                                        Fraction(0)))
        y = dense(m, p, with_zero_lines(rng, m, p, random_rational,
                                        Fraction(0)))
        prod = x @ y
        assert prod == dense(n, p, tuple(naive_product(x, y)))
        assert int_numerators(prod)


def banded(rng, rows, cols, blocks, entry):
    """rows x cols entries, row-major: the columns cut into `blocks` runs,
    each with its own denominator; every row is zero, or nonzero on a run
    of one or two neighbouring blocks, trimmed at both ends by up to two
    entries, with a zero inside now and then."""
    edges = sorted(rng.sample(range(1, cols), blocks - 1)) if blocks > 1 else []
    edges = [0] + edges + [cols]
    dens = [rng.choice((1, 2, 3, 5, 7, 9, 11, 12, 13)) for _ in edges[1:]]
    out = []
    for _ in range(rows):
        row = [Fraction(0)] * cols
        if rng.random() > 0.15:
            b = rng.randrange(blocks)
            span = range(b, min(b + rng.choice((1, 2)), blocks))
            lo = edges[span[0]] + rng.randint(0, 2)
            hi = edges[span[-1] + 1] - rng.randint(0, 2)
            for k in range(lo, hi):
                if rng.random() > 0.1:
                    blk = next(i for i in span if k < edges[i + 1])
                    row[k] = entry(rng) / dens[blk]
        out.append(row)
    return out


def test_large_block_banded_products_match_triple_loop():
    """Products of 2^14 and more multiplications whose factors are banded
    the way a total differential is: rows and columns of different spans,
    zero rows and columns, and a denominator per block."""
    rng = random.Random(45)

    def big(r):
        return Fraction(r.randint(-10**12, 10**12), r.randint(1, 99))

    for n, m, p, blocks in ((28, 30, 26, 4), (40, 24, 40, 6), (26, 36, 30, 1),
                            (30, 30, 30, 9), (24, 40, 28, 3)):
        assert n * m * p >= 1 << 14
        a = RatMatrix.from_rows(banded(rng, n, m, blocks, big), m)
        bt = banded(rng, p, m, max(1, blocks - 1), big)  # rows of b^T
        b = transpose(RatMatrix.from_rows(bt, m))
        prod = a @ b
        assert prod == dense(n, p, tuple(naive_product(a, b)))
        assert int_numerators(prod)
        assert any(prod.columns) and sum(map(len, prod.columns)) < n * p


def test_transpose_column_and_apply_match_entries():
    rng = random.Random(43)
    for n, m, _ in random_shapes(rng, 60):
        a = dense(n, m, tuple(rng.randint(-9, 9) for _ in range(n * m)))
        q = dense(n, m, tuple(random_rational(rng) for _ in range(n * m)))
        for M in (a, q):
            T = transpose(M)
            t, e = fraction_rows(T), fraction_rows(M)
            assert (T.rows, T.cols) == (m, n)
            assert all(t[j][i] == e[i][j] for i in range(n) for j in range(m))
        e = fraction_rows(a)
        for j in range(m):
            assert column(a, j) == tuple(e[i][j] for i in range(n))
        v = [random_rational(rng) for _ in range(m)]
        assert list(apply(q, v)) == naive_product(q, dense(m, 1, tuple(v)))
    with pytest.raises(ValueError, match="vector length mismatch"):
        apply(zero_matrix(2, 3), [1, 2])


def test_total_differential_matches_block_reference():
    rng = random.Random(44)
    for _ in range(10):
        B = tensor_blocks(random_dense_cochain(rng, max_deg=3, max_pieces=3),
                          random_cochain(rng, max_deg=3, max_pieces=2))
        K = double_complex(B.max_r, B.max_c, B.dims, B.horiz, B.vert)
        T = K.total
        for n in range(K.max_r + K.max_c):
            src = [(r, n - r) for r in range(n + 1) if K.dims.get((r, n - r))]
            dst = [(r, n + 1 - r) for r in range(n + 2)
                   if K.dims.get((r, n + 1 - r))]
            want = [[Fraction(0)] * T.dim(n) for _ in range(T.dim(n + 1))]
            col_off = 0
            for r, s in src:
                row_off = 0
                for t in dst:
                    M, sign = {(r + 1, s): (B.horiz.get((r, s)), 1),
                               (r, s + 1): (B.vert.get((r, s)), (-1) ** r),
                               }.get(t, (None, 1))
                    if M is not None:
                        e = fraction_rows(M)
                        for a in range(M.rows):
                            for b in range(M.cols):
                                want[row_off + a][col_off + b] = sign * e[a][b]
                    row_off += K.dims.get(t, 0)
                col_off += K.dims.get((r, s), 0)
            assert differential(T, n) == RatMatrix.from_rows(want, T.dim(n))


# ----------------------------------------------------- failing checks' messages

def one(x):
    return RatMatrix.from_rows([[x]], 1)


def test_cochain_d_o_d_message():
    doc = json.dumps({"min_deg": -1, "dims": {"-1": 1, "0": 1, "1": 1, "2": 1},
                      "differentials": {"0": [["1"]], "1": [["1/2"]]}})
    with pytest.raises(DocumentError) as e:
        parse_cochain_document(doc)
    assert str(e.value) == "d o d != 0 at degree 0"


def test_chain_d_o_d_message():
    doc = json.dumps({"dims": {"0": 1, "1": 2, "2": 1},
                      "differentials": {"1": [[1, 1]], "2": [[1], [-2]]}})
    with pytest.raises(DocumentError) as e:
        parse_chain_document(doc)
    assert str(e.value) == "d o d != 0 at degree 1"


def test_double_complex_composite_messages():
    dims = {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    with pytest.raises(DoubleComplexError) as e:
        double_complex(2, 0, dims, {(0, 0): one(1), (1, 0): one(3)}, {})
    assert str(e.value) == "horiz composite nonzero at (0,0)"
    dims = {(1, 0): 1, (1, 1): 1, (1, 2): 1}
    with pytest.raises(DoubleComplexError) as e:
        double_complex(1, 2, dims, {}, {(1, 0): one(2), (1, 1): one(-1)})
    assert str(e.value) == "vert composite nonzero at (1,0)"


def test_square_messages_with_absent_factors():
    dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    full = {"horiz": {(0, 0): one(1), (0, 1): one(1)},
            "vert": {(0, 0): one(1), (1, 0): one(1)}}
    double_complex(1, 1, dims, full["horiz"], full["vert"])
    with pytest.raises(DoubleComplexError) as e:
        double_complex(1, 1, dims, full["horiz"],
                       {(0, 0): one(1), (1, 0): one(2)})
    assert str(e.value) == "square does not commute at (0,0)"
    # One path of the square is absent, so zero by shape; the other is not.
    for field, cell in (("horiz", (0, 0)), ("horiz", (0, 1)),
                        ("vert", (0, 0)), ("vert", (1, 0))):
        maps = {k: dict(v) for k, v in full.items()}
        del maps[field][cell]
        with pytest.raises(DoubleComplexError) as e:
            double_complex(1, 1, dims, maps["horiz"], maps["vert"])
        assert str(e.value) == "square does not commute at (0,0)"
    # Both paths zero: one by shape, one by value.
    double_complex(1, 1, dims, {(0, 0): one(1)}, {(1, 0): one(0)})


def test_square_paths_compare_as_values_over_their_own_denominators():
    """Each path of a square is a raw product of block numerators over the
    product of the blocks' denominators: equal values over different
    denominators commute, and equal numerators over different denominators
    do not, as the reference checks on `RatMatrix` products find."""
    def q(*rows):
        return RatMatrix.from_rows([[Fraction(x) for x in r] for r in rows])

    dims = {(0, 0): 2, (1, 0): 2, (0, 1): 2, (1, 1): 2}
    horiz = {(0, 0): q(("1/2", 0), (0, "1/4"))}           # den 4
    vert = {(1, 0): q(("4/3", "2/3"), (0, 1))}              # den 3
    # d'' d' = [[8, 2], [0, 3]] / 12 = [[16, 4], [0, 6]] / 24 = d' d''
    horiz[(0, 1)] = q(("1/3", "1/12"), (0, "1/8"))         # den 24
    vert[(0, 0)] = q((2, 0), (0, 2))                        # den 1
    K = double_complex(1, 1, dims, horiz, vert)
    assert reference_defects(Blocks(1, 1, dims, horiz, vert)) == []
    # the same numerators [[8, 2], [0, 3]] over 24 and over 12
    vert[(0, 0)] = q((1, 0), (0, 1))
    horiz[(0, 1)] = dense(2, 2, (8, 2, 0, 3), 24)
    with pytest.raises(DoubleComplexError) as e:
        double_complex(1, 1, dims, horiz, vert)
    assert str(e.value) == "square does not commute at (0,0)"
    assert reference_defects(Blocks(1, 1, dims, horiz, vert)) == [
        "square does not commute at (0,0)"]


def test_double_complex_document_square_message():
    doc = json.dumps({"max_r": 1, "max_c": 1,
                      "dims": {"0,0": 1, "1,0": 1, "0,1": 1, "1,1": 1},
                      "horiz": {"0,0": [["1"]]},
                      "vert": {"1,0": [["1"]]}})
    with pytest.raises(DocumentError) as e:
        parse_double_complex_document(doc)
    assert str(e.value) == "square does not commute at (0,0)"
