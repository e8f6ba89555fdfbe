import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    RATIONAL,
    Subspace,
    fraction_rows,
    is_complementary,
    kernel_basis,
    num_rows,
    rank,
    reference_rational,
    rref,
    subspace_intersect,
    subspace_sum,
    transpose,
    zero_matrix,
)
from exhom import qlinalg
from exhom.qlinalg import RatMatrix


def mat(rows):
    return RatMatrix.from_rows(rows)


def fraction_rref(M):
    """Gauss-Jordan elimination on the Fraction entries: (rows, pivots)."""
    rows, pivots, r = fraction_rows(M), [], 0
    for c in range(M.cols):
        pr = next((i for i in range(r, M.rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(M.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def test_rref_zero_matrix():
    R, piv = rref(mat([[0]]))
    assert R == mat([[0]])
    assert piv == []


def test_rref_identity():
    R, piv = rref(RatMatrix.identity(3))
    assert R == RatMatrix.identity(3)
    assert piv == [0, 1, 2]


def test_rref_dependent_rows():
    R, piv = rref(mat([[2, 4], [1, 2]]))
    assert R == mat([[1, 2], [0, 0]])
    assert piv == [0]


def test_rref_idempotent():
    rng = random.Random(1)
    for _ in range(25):
        M = mat([[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(4)] for _ in range(3)])
        R, _ = rref(M)
        assert rref(R)[0] == R


def test_kernel_zero_map_is_full():
    assert kernel_basis(zero_matrix(2, 3)) == Subspace.full(3)


def test_kernel_identity_is_zero():
    assert kernel_basis(RatMatrix.identity(2)) == Subspace.zero(2)


def test_kernel_one_equation():
    K = kernel_basis(mat([[1, 1]]))
    assert K.dim == 1
    assert K.basis == mat([[1, -1]])


def test_rank_nullity():
    rng = random.Random(2)
    for _ in range(30):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        M = mat([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]) \
            if r else zero_matrix(0, c)
        assert rank(M) + kernel_basis(M).dim == c


def test_sum_with_zero():
    U = Subspace.span(3, [[1, 1, 0]])
    assert subspace_sum(U, Subspace.zero(3)) == U


def test_sum_of_axes():
    U = Subspace.span(2, [[1, 0]])
    W = Subspace.span(2, [[0, 1]])
    assert subspace_sum(U, W) == Subspace.full(2)


def test_sum_example():
    U = Subspace.span(3, [[1, 1, 0]])
    W = Subspace.span(3, [[1, 1, 1]])
    S = subspace_sum(U, W)
    assert S.dim == 2
    assert S.contains([1, 1, 0]) and S.contains([1, 1, 1])


def test_intersect_with_full():
    U = Subspace.span(3, [[1, 2, 3]])
    assert subspace_intersect(U, Subspace.full(3)) == U


def test_intersect_axes():
    U = Subspace.span(2, [[1, 0]])
    W = Subspace.span(2, [[0, 1]])
    assert subspace_intersect(U, W) == Subspace.zero(2)


def test_intersect_planes():
    U = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
    W = Subspace.span(3, [[0, 1, 0], [0, 0, 1]])
    assert subspace_intersect(U, W) == Subspace.span(3, [[0, 1, 0]])


def test_complementary():
    e1 = Subspace.span(2, [[1, 0]])
    e2 = Subspace.span(2, [[0, 1]])
    assert is_complementary(e1, e2)
    assert not is_complementary(e1, e1)
    assert is_complementary(Subspace.span(2, [[1, 1]]),
                            Subspace.span(2, [[1, -1]]))


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        subspace_sum(Subspace.zero(2), Subspace.zero(3))
    with pytest.raises(ValueError):
        subspace_intersect(Subspace.zero(2), Subspace.zero(3))
    with pytest.raises(ValueError):
        is_complementary(Subspace.zero(2), Subspace.zero(3))


small_vec = st.lists(st.integers(-4, 4), min_size=8, max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_vec, min_size=0, max_size=4),
       st.lists(small_vec, min_size=0, max_size=4))
def test_modular_identity(urows, wrows):
    U = Subspace.span(8, urows)
    W = Subspace.span(8, wrows)
    assert subspace_sum(U, W).dim + subspace_intersect(U, W).dim \
        == U.dim + W.dim


@settings(max_examples=60, deadline=None)
@given(st.lists(small_vec, min_size=1, max_size=3),
       st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_canonicality_under_respanning(rows, coeffs):
    """Two spanning sets of the same space give identical Subspace values."""
    U = Subspace.span(8, rows)
    respanned = []
    for crow in coeffs:
        v = [Fraction(0)] * 8
        for c, row in zip(crow, rows):
            v = [x + c * y for x, y in zip(v, row)]
        respanned.append(v)
    V = Subspace.span(8, respanned + rows)
    assert V == U


def test_fraction_free_rref_matches_fraction_elimination():
    rng = random.Random(47)
    for trial in range(300):
        n, m = rng.randint(0, 6), rng.randint(0, 7)
        k = rng.randint(0, min(n, m))  # rank at most k: a product of two
        left = [[Fraction(rng.randint(-9, 9), rng.randint(1, 8))
                 for _ in range(k)] for _ in range(n)]
        right = [[Fraction(rng.randint(-9, 9), rng.randint(1, 8))
                  for _ in range(m)] for _ in range(k)]
        M = RatMatrix.from_rows(
            [[sum((a[t] * right[t][j] for t in range(k)), Fraction(0))
              for j in range(m)] for a in left], m)
        if trial % 3 == 0:  # a zero column and a repeated row
            M = RatMatrix.from_rows(
                [[0, *r] for r in fraction_rows(M)[:1] + fraction_rows(M)],
                m + 1)
        R, pivots = rref(M)
        rows, want = fraction_rref(M)
        assert pivots == want
        assert R == RatMatrix.from_rows(rows, M.cols)
        assert fraction_rows(R) == rows
        assert Subspace.span(M.cols, fraction_rows(M)).basis \
            == RatMatrix.from_rows(rows[:len(pivots)], M.cols)


def test_bools_are_stored_as_ints():
    A = RatMatrix.from_rows([[True, -5], [False, Fraction(1, 2)]])
    assert all(type(x) is int for col in A.columns for x in col.values())
    assert A == mat([[1, -5], [0, Fraction(1, 2)]])


def test_from_rows_refuses_what_is_not_rational():
    # a float is refused, not widened to its binary fraction
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        RatMatrix(-1, 0, ())
    for bad in (1.7, 2.0, None, [1]):
        with pytest.raises(ValueError, match="must be rational"):
            mat([[bad]])
    A = mat([[True, -5, "3", Fraction(1, 2), "-7/4"]])
    assert A == RatMatrix(1, 5, ({0: 4}, {0: -20}, {0: 12}, {0: 2}, {0: -7}),
                          4)
    assert A.den == 4


def test_from_rows_reads_strings_with_the_document_grammar():
    """A string entry is an integer or "p/q" with an optional sign, as in a
    document; anything `Fraction` would also read (exponents, decimals,
    blanks, underscores) or cannot (q = 0) is a ValueError, and an exponent
    is refused at once rather than expanded."""
    A = mat([["+3", "-08", "6/4", "-0/5"]])
    assert A == RatMatrix(1, 4, ({0: 6}, {0: -16}, {0: 3}, {}), 2)
    for bad in ("1e3", "1.5", " 3 ", "1_0", "1/0", "3/-4", "", "1e99999999",
                "\u0661"):
        with pytest.raises(ValueError, match="must be rational"):
            mat([[0, bad]])


def _read(reader, text):
    """What `reader` returns for `text`, or the text of its ValueError."""
    try:
        return reader(text)
    except ValueError as e:
        return str(e)


# signs, slashes, ASCII digits, and blanks, underscores and non-ASCII digits
# (Arabic-Indic, superscript, fullwidth three) that int or isdigit accepts
_NEAR_RATIONALS = st.text("+-/ _0123456789\u0663\u00b3\uff13", max_size=8)


@settings(max_examples=500, deadline=None)
@given(text=_NEAR_RATIONALS | st.from_regex(RATIONAL, fullmatch=True))
def test_rational_reader_accepts_what_the_grammar_accepts(text):
    """`qlinalg._rational` reads (p, q) off exactly the strings the regular
    expression matches whole with q != 0."""
    assert _read(qlinalg._rational, text) == reference_rational(text)


def test_rational_reader_refuses_long_parts_as_int_does():
    """A part past the int-string digit limit raises int's own ValueError,
    the denominator's first, and p over q = 0 is refused unread: entries
    are refused as the regular expression's reader refused them."""
    p, q = "-" + "7" * 5000, "3" * 6000
    for text in (p, "1/" + q, p + "/" + q, p + "/0"):
        want = _read(reference_rational, text)
        assert _read(qlinalg._rational, text) == want
        with pytest.raises(ValueError) as e:
            mat([[text]])
        assert str(e.value) == (
            want or f"matrix entries must be rational, got {text!r}")
        assert ("Exceeds the limit" in str(e.value)) == (want is not None)


def test_rat_matrix_stores_integers_over_one_denominator_in_lowest_terms():
    assert mat([[Fraction(2, 4)]]) == mat([[Fraction(1, 2)]])
    A = mat([[Fraction(2, -8), Fraction(-4, -8)], [Fraction(6, -8), 0]])
    assert (num_rows(A), A.den) == ([[-1, 2], [-3, 0]], 4)
    assert A.columns == ({0: -1, 1: -3}, {0: 2})
    assert A == mat([["-1/4", "1/2"], [Fraction(-3, 4), 0]])
    assert fraction_rows(A) == [[Fraction(-1, 4), Fraction(1, 2)],
                                [Fraction(-3, 4), 0]]
    assert all(type(x) is int for col in A.columns for x in col.values())
    assert (zero_matrix(2, 3).den, RatMatrix.identity(2).den) == (1, 1)
    P = A @ A  # (1/16) [[-5, -2], [3, -6]]
    assert (num_rows(P), P.den) == ([[-5, -2], [3, -6]], 16)
    assert transpose(A) == mat([["-1/4", "-3/4"], ["1/2", 0]])
