import inspect
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from conftest import (
    RP2,
    barycentric,
    cokernel_structure,
    determinant,
    eager_bareiss,
    eager_smith_mod,
    kernel_lattice,
    planted_int_matrix,
    random_int_chain,
    random_int_matrix,
    random_low_rank_matrix,
    random_unimodular,
    rank,
    rank_mod_p,
    surface_chain,
    to_rational,
)
from exhom import zlinalg
from exhom.cli import main
from exhom.zlinalg import (
    FinAbGroup,
    IntMatrix,
    _adjoint_columns,
    _bareiss,
    _certified,
    _rhs,
    invariant_factors,
    is_prime,
    smith_normal_form,
)


def check_form(A, snf):
    assert (snf.U @ A @ snf.V).entries == snf.D.entries
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    k = min(A.rows, A.cols)
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert snf.D[i, j] == 0
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    assert list(diag[:len(nz)]) == nz, "zero diagonal entries must come last"
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert len(diag) == k


def test_snf_zero_matrix():
    A = IntMatrix.zero(2, 3)
    snf = smith_normal_form(A)
    check_form(A, snf)
    assert snf.diagonal == (0, 0)


def test_snf_identity():
    A = IntMatrix.identity(3)
    snf = smith_normal_form(A)
    check_form(A, snf)
    assert snf.diagonal == (1, 1, 1)


def test_snf_example():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    snf = smith_normal_form(A)
    check_form(A, snf)
    assert snf.diagonal == (2, 4)


def test_snf_random_reconstruction():
    rng = random.Random(7)
    for _ in range(100):
        A = random_int_matrix(rng, max_size=6, bound=20)
        snf = smith_normal_form(A)
        check_form(A, snf)


def determinantal_quotients(A):
    """D_k / D_{k-1}, D_k the gcd of all k x k minors, zeros once D_k = 0."""
    k = min(A.rows, A.cols)
    D = [1]
    for size in range(1, k + 1):
        g = 0
        for rs in combinations(range(A.rows), size):
            for cs in combinations(range(A.cols), size):
                g = gcd(g, determinant(IntMatrix.from_rows(
                    [[A[i, j] for j in cs] for i in rs], size)))
        if g == 0:
            break
        D.append(g)
    return (tuple(b // a for a, b in zip(D, D[1:]))
            + (0,) * (k + 1 - len(D)))


def test_invariant_factors_path_independent():
    rng = random.Random(8)
    for i in range(90):
        if i % 3 == 2:
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            A = random_low_rank_matrix(rng, rows, cols,
                                       rng.randint(1, min(rows, cols)))
        else:
            A = random_int_matrix(rng, max_size=5, bound=15)
        f = invariant_factors(A)
        assert f == invariant_factors(A.transpose())
        assert f == smith_normal_form(A).diagonal
        assert f == determinantal_quotients(A)


def test_invariant_factors_edge_shapes():
    assert invariant_factors(IntMatrix.zero(0, 3)) == ()
    assert invariant_factors(IntMatrix.zero(3, 0)) == ()
    assert invariant_factors(IntMatrix.zero(2, 3)) == (0, 0)
    assert invariant_factors(IntMatrix.zero(0, 0)) == ()
    # the only factor equals the minor M, so it is 0 mod M
    assert invariant_factors(IntMatrix.from_rows([[2]])) == (2,)
    assert invariant_factors(IntMatrix.from_rows([[-3]])) == (3,)
    assert invariant_factors(IntMatrix.from_rows([[2, 4], [6, 8]])) == (2, 4)


def test_invariant_factors_match_smith_form():
    rng = random.Random(11)
    for i in range(300):
        if i % 2:
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            A = random_low_rank_matrix(rng, rows, cols,
                                       rng.randint(0, min(rows, cols)))
        else:
            A = random_int_matrix(rng, max_size=8,
                                  bound=rng.choice((1, 3, 20)))
        assert invariant_factors(A) == smith_normal_form(A).diagonal


def test_invariant_factors_planted():
    rng = random.Random(12)
    for _ in range(12):
        rows, cols = rng.randint(1, 30), rng.randint(1, 34)
        r = rng.randint(0, min(rows, cols))
        t, d = [], 1
        for _ in range(r):
            d *= rng.choice((1, 1, 1, 2, 3, 5, 6))
            t.append(d)
        t += [0] * (min(rows, cols) - r)
        D = IntMatrix.from_rows([[t[i] if i == j else 0 for j in range(cols)]
                                 for i in range(rows)], cols)
        A = (random_unimodular(rng, rows, ops=4 * rows) @ D
             @ random_unimodular(rng, cols, ops=4 * cols))
        assert invariant_factors(A) == tuple(t)


def solve_modulus(A):
    """The modulus invariant_factors uses on a nonsingular square A:
    gcd(det A, det(A).A^-1.B) = |det A| / delta for the fixed columns B."""
    piv, minor, low = _bareiss(A, _rhs(A.rows))
    assert len(piv) == A.rows == A.cols and minor == determinant(A)
    return gcd(minor, *_adjoint_columns(low, piv, A.cols))


def planted_square(rng, t):
    D = IntMatrix.from_rows([[t[i] if i == j else 0 for j in range(len(t))]
                             for i in range(len(t))], len(t))
    return (random_unimodular(rng, len(t), ops=4 * len(t)) @ D
            @ random_unimodular(rng, len(t), ops=4 * len(t)))


def test_solve_modulus_is_det_when_the_solve_certifies_nothing():
    # A's first two columns are B itself, so A^-1.B is integral: delta = 1
    rng = random.Random(21)
    for n in (2, 3, 5, 7):
        B = _rhs(n)
        while True:
            rest = [[rng.randint(-9, 9) for _ in range(n - 2)]
                    for _ in range(n)]
            A = IntMatrix.from_rows([[B[0][i], B[1][i]] + rest[i]
                                     for i in range(n)], n)
            if determinant(A):
                break
        assert solve_modulus(A) == abs(determinant(A))
        assert invariant_factors(A) == smith_normal_form(A).diagonal
        if n <= 5:
            assert invariant_factors(A) == determinantal_quotients(A)


def test_solve_modulus_strictly_between_one_and_det():
    # d_1...d_{n-1} > 1 divides the modulus, and delta > 1 keeps it below |det|
    for k, n in ((6, 4), (2, 1), (12, 3)):
        A = IntMatrix.from_rows([[k if i == j else 0 for j in range(n)]
                                 for i in range(n)], n)
        assert invariant_factors(A) == (k,) * n
        if n > 1:
            assert 1 < solve_modulus(A) < abs(determinant(A))
    rng = random.Random(22)
    for t in ((1, 2, 6, 12, 60), (3, 3, 3, 9), (1, 1, 2, 2, 4, 8, 24, 240)):
        A = planted_square(rng, t)
        assert 1 < solve_modulus(A) < abs(determinant(A))
        assert invariant_factors(A) == smith_normal_form(A).diagonal == t


def test_invariant_factors_nonsingular_square_sweep():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 7)
        t, d = [], 1
        for _ in range(n):
            d *= rng.choice((1, 1, 2, 3, 4, 5))
            t.append(d)
        A = planted_square(rng, t)
        assert invariant_factors(A) == tuple(t)
        A = random_int_matrix(rng, max_size=7, bound=rng.choice((1, 2, 20)))
        if A.rows == A.cols and determinant(A):
            assert invariant_factors(A) == smith_normal_form(A).diagonal


def test_invariant_factors_singular_square():
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(1, 5)
        A = random_low_rank_matrix(rng, n, n, rng.randint(0, n - 1))
        assert determinant(A) == 0
        f = invariant_factors(A)
        assert f == smith_normal_form(A).diagonal
        assert f == determinantal_quotients(A)


def test_invariant_factors_uniform_60():
    rng = random.Random(25)
    A = IntMatrix.from_rows([[rng.randint(-20, 20) for _ in range(60)]
                             for _ in range(60)], 60)
    f = invariant_factors(A)
    assert len(f) == 60 and all(d > 0 for d in f)
    assert all(b % a == 0 for a, b in zip(f, f[1:]))
    product = 1
    for d in f:
        product *= d
    assert product == abs(determinant(A))


def bareiss_inputs():
    """The empty and 1 x 1 shapes, then 200 seeded matrices: half square,
    half with density 0.1-0.3 and half dense, every fifth with a row and a
    column zeroed."""
    yield from (IntMatrix.zero(0, 4), IntMatrix.zero(4, 0),
                IntMatrix.zero(0, 0), IntMatrix.from_rows([[0]]),
                IntMatrix.from_rows([[5]]), IntMatrix.from_rows([[-3]]))
    rng = random.Random(26)
    for i in range(200):
        rows = cols = rng.randint(1, 12)
        if i % 2:
            cols = rng.randint(1, 12)
        density = rng.uniform(0.1, 0.3) if i % 4 < 2 else 1.0
        m = [[rng.randint(-9, 9) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        if i % 5 == 0:
            m[rng.randrange(rows)] = [0] * cols
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        yield IntMatrix.from_rows(m, cols)


def pivot_rows(A, piv):
    """The rows `_bareiss` pivots on, in its order: Gaussian elimination
    over Q with the same row swaps (its entries vanish where the
    fraction-free ones do), so A[rows, piv] is the pivot block P."""
    m = [list(map(Fraction, A.row(i))) for i in range(A.rows)]
    order = list(range(A.rows))
    for r, c in enumerate(piv):
        pr = next(i for i in range(r, A.rows) if m[i][c])
        m[r], m[pr] = m[pr], m[r]
        order[r], order[pr] = order[pr], order[r]
        for i in range(r + 1, A.rows):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
    return order[:len(piv)]


def test_lazy_bareiss_matches_eager():
    shapes = Counter()
    for A in bareiss_inputs():
        B = _rhs(A.rows)
        piv, minor, m = _bareiss(A, B)
        piv0, minor0, m0 = eager_bareiss(A, B)
        assert (piv, minor) == (piv0, minor0)
        # pivot row i from its pivot on, the extra columns included
        assert ([row[c:] for row, c in zip(m, piv)]
                == [row[c:] for row, c in zip(m0, piv)])
        r = len(piv)
        if not r:
            continue
        shapes["full" if r == A.rows == A.cols else "other"] += 1
        ys = _adjoint_columns(m, piv, A.cols)
        assert ys == _adjoint_columns(m0, piv, A.cols)
        # Y = p.P^-1.B' on the pivot block: P.Y = p.B', p = +-det P
        rows, p = pivot_rows(A, piv), m[r - 1][piv[-1]]
        assert abs(p) == abs(minor) == abs(determinant(IntMatrix.from_rows(
            [[A[i, j] for j in piv] for i in rows], r)))
        for b, y in zip(B, (ys[:r], ys[r:])):
            assert [sum(A[i, j] * x for j, x in zip(piv, y))
                    for i in rows] == [p * b[i] for i in rows]
    assert shapes["full"] >= 40 and shapes["other"] >= 100


def test_certificate_accepts_only_the_smith_diagonal():
    # checks (a) and (b) prove e = gcd(d_i, G) exact for any modulus G, not
    # only for delta'^2: every accepted chain is the Smith diagonal
    rng = random.Random(28)
    seen = Counter()
    while seen["matrices"] < 2000:
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        k = rng.randint(1, min(rows, cols))
        X = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(k)]
                                 for _ in range(rows)], k)
        Y = IntMatrix.from_rows(
            [[s * rng.randint(-2, 2) for _ in range(cols)]
             for s in rng.choices((1, 2, 3, 4, 6, 8, 9, 12, 18, 27), k=k)],
            cols)
        A = X @ Y
        piv, minor, _ = _bareiss(A)
        r = len(piv)
        if not r:
            continue
        seen["matrices"] += 1
        d = list(smith_normal_form(A).diagonal[:r])
        for G in (2, 3, 4, 5, 6, 8, 12, 30, 36, 72, d[-1], 2 * d[-1],
                  d[-1] ** 2):
            e = _certified(A, G, minor, r)
            seen["rejected" if e is None else "accepted"] += 1
            assert e is None or e == d
    assert seen["accepted"] > 1000 and seen["rejected"] > 1000


# the last three, 2^6.3^2.11^2, 2^8.3^4.5^4 and 2^4.3^10.5^8, are squares
# with repeated primes, as the delta'^2 moduli of planted matrices are
SMITH_MODULI = (1, 2, 4, 6, 12, 30, 360, 97, 2 ** 10, 2 ** 31 - 1,
                2 ** 61 - 1, 69696, 12960000, 369056250000)


def widest_entry(A, M, r, probe):
    """(`_smith_mod(A, M, r)`, the bit length of the widest entry it
    stores).  Only a row operation writes an unreduced entry, and all of a
    pass's row operations are done when it writes its pivot row back
    (`m[t][t:] = top`, line `probe`), so a trace reads the matrix there.
    The trace also stops an elimination that runs past 10^5 lines."""
    code, widest, steps = zlinalg._smith_mod.__code__, 0, 0

    def local(frame, event, arg):
        nonlocal widest, steps
        steps += 1
        assert steps < 10 ** 5, "the elimination does not end"
        if event == "line" and frame.f_lineno == probe:
            widest = max(widest, *(abs(x).bit_length()
                                   for row in frame.f_locals["m"]
                                   for x in row))
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is code else None)
    try:
        return zlinalg._smith_mod(A, M, r), widest
    finally:
        sys.settrace(previous)


def test_lazy_smith_mod_matches_eager():
    # the eager elimination's gcd(d_i, M), with every stored entry within
    # 2.bits(M) + bits(4.k.(1 + bits(M))) bits, k = min(rows, cols)
    lines, first = inspect.getsourcelines(zlinalg._smith_mod)
    probe = first + next(k for k, line in enumerate(lines)
                         if line.strip() == "m[t][t:] = top")
    rng = random.Random(30)
    seen = Counter()
    for n in range(200):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        density = 1 if n % 2 else rng.choice((0.2, 0.4))
        A = IntMatrix.from_rows(
            [[rng.randint(-30, 30) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)], cols)
        r, k = len(_bareiss(A)[0]), min(rows, cols)
        for M in SMITH_MODULI + (rng.randrange(1, 10 ** 6),
                                 rng.randrange(1, 2 ** 70)):
            e, widest = widest_entry(A, M, r, probe)
            assert e == eager_smith_mod(A, M, r)
            bits = M.bit_length()
            assert widest <= 2 * bits + (4 * k * (1 + bits)).bit_length()
            seen["proper"] += any(1 < x < M for x in e)
            # past both M and the 5 bits of the inputs: grown unreduced
            seen["grown"] += widest > max(bits, 6)
    assert seen["proper"] > 500 and seen["grown"] > 500


def test_smith_mod_modulo_one_builds_no_matrix(monkeypatch):
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    monkeypatch.setattr(IntMatrix, "row",
                        lambda self, i: pytest.fail("A.row was called"))
    assert zlinalg._smith_mod(A, 1, 2) == [1, 1]


def test_smith_mod_fallback_when_the_least_gcd_divides_too_little(
        monkeypatch):
    # g = gcd(pivot, M) does not divide another entry of the pivot row (of
    # the pivot column in the transpose), so only an xgcd step reaches the
    # diagonal
    xgcd, calls = zlinalg._xgcd, []
    monkeypatch.setattr(zlinalg, "_xgcd",
                        lambda a, b: calls.append((a, b)) or xgcd(a, b))
    for rows, M, e in (([[2, 3]], 6, [1]), ([[4, 6]], 12, [2]),
                       ([[6, 10, 15]], 30, [1])):
        A = IntMatrix.from_rows(rows)
        for B in (A, A.transpose()):
            calls.clear()
            assert zlinalg._smith_mod(B, M, 1) == e == eager_smith_mod(B, M, 1)
            assert calls


def test_smith_mod_and_the_split_on_empty_and_zero_matrices():
    for rows, cols in ((0, 3), (3, 0), (2, 3)):
        A = IntMatrix.zero(rows, cols)
        assert zlinalg._split_pivots(A) == ([], IntMatrix.zero(0, 0))
        for M in (1, 6, 97):
            assert zlinalg._smith_mod(A, M, 0) == []
            assert eager_smith_mod(A, M, 0) == []


def test_the_split_consumes_unimodular_matrices(monkeypatch):
    # nothing of a signed permutation is left, so no Bareiss pass runs; a
    # random unimodular matrix gives all ones whatever the split leaves
    rng = random.Random(31)
    passes = []
    monkeypatch.setattr(zlinalg, "_bareiss", lambda A, extra=():
                        passes.append(A) or _bareiss(A, extra))
    for n in range(1, 13):
        perm = rng.sample(range(n), n)
        A = IntMatrix.from_rows([[rng.choice((-1, 1)) * (j == perm[i])
                                  for j in range(n)] for i in range(n)], n)
        assert zlinalg._split_pivots(A) == ([1] * n, IntMatrix.zero(0, 0))
        assert invariant_factors(A) == (1,) * n
    # row 0 holds no +-1 until row 1's pivot clears its first column
    assert zlinalg._split_pivots(IntMatrix.from_rows([[2, 3], [1, 1]])) == (
        [1, 1], IntMatrix.zero(0, 0))
    assert not passes
    consumed = 0
    for n in range(1, 13):
        for ops in (6, 4 * n):
            A = random_unimodular(rng, n, ops=ops)
            assert invariant_factors(A) == (1,) * n
            consumed += zlinalg._split_pivots(A)[1].rows == 0
    assert consumed >= 12 and len(passes) >= 1


def test_the_split_takes_every_unit_of_a_projective_plane():
    # d_2 of the second barycentric subdivision of RP^2 has the Smith
    # diagonal (1, ..., 1, 2): the +-1 pivots split off all 359 ones, and
    # the 2 they leave divides its row and column, so nothing is left
    D = surface_chain(barycentric(barycentric(RP2))).differentials[2]
    assert (D.rows, D.cols) == (540, 360)
    pivots, S = zlinalg._split_pivots(D)
    assert sorted(pivots) == [1] * 359 + [2] and S.rows == 0
    assert invariant_factors(D) == (1,) * 359 + (2,)


def planted_inputs():
    """12 seeded singular planted matrices for which the block S the pivot
    split leaves has a minor M0 over 64 bits, n x n and n x n +- 4 rows for
    n = 24, 28, 32, 36, with their Smith diagonals t: the first of each
    shape the seed gives."""
    rng = random.Random(29)
    for n in (24, 28, 32, 36):
        for rows in (n, n + 4, n - 4):
            while True:
                A, t = planted_int_matrix(rng, rows, n)
                S = zlinalg._split_pivots(A)[1]
                if S.rows and abs(_bareiss(S)[1]).bit_length() > 64:
                    yield A, t
                    break


@pytest.fixture
def traced(monkeypatch):
    """`traced(A)`: invariant_factors(A) and the route it took, read from
    the moduli a spy on `_smith_mod` sees: M0 alone (minor), M0 after
    another modulus (fallback) or no M0 (certified).  M0 is the minor of the
    matrix the spy is given, what is left of A after the pivot split."""
    calls, seen = [], []
    smith_mod = zlinalg._smith_mod

    def spy(A, M, r):
        calls.append(M)
        seen.append(A)
        return smith_mod(A, M, r)

    def traced(A):
        calls.clear()
        seen.clear()
        factors = invariant_factors(A)
        M0 = abs(_bareiss(seen[0])[1])
        if calls == [M0]:
            return factors, "minor"
        return factors, "fallback" if calls[-1] == M0 else "certified"

    monkeypatch.setattr(zlinalg, "_smith_mod", spy)
    return traced


def test_invariant_factors_planted_known_answers(traced, tmp_path, capsys):
    # a minor past 64 bits takes the delta'^2 modulus; invariant_factors
    # and `exhom snf` both give t
    seen = Counter()
    for A, t in planted_inputs():
        factors, route = traced(A)
        assert factors == t
        seen[route] += 1
        f = tmp_path / "m.json"
        f.write_text(json.dumps(A.to_lists()))
        assert main(["snf", "--input", str(f)]) == 0
        assert capsys.readouterr().out == " ".join(map(str, t)) + "\n"
    assert seen["certified"] == 12


def test_invariant_factors_minor_route_when_delta_is_one(traced,
                                                         monkeypatch):
    # zero columns B make P^-1.B' integral: delta' = 1 certifies nothing
    monkeypatch.setattr(zlinalg, "_rhs", lambda n: [[0] * n, [0] * n])
    for A, t in planted_inputs():
        assert traced(A) == (t, "minor")
    # a minor of at most 64 bits is the modulus whatever B gives, also
    # where 1 < G < M0: nothing splits off [[3, 0, 2], [0, 9, 4]], M0 = 27
    # and G = 9; 6 splits off [[6, 0, 0], [0, 10, 4]], leaving M0 = 10
    monkeypatch.setattr(zlinalg, "_rhs", _rhs)
    assert traced(IntMatrix.from_rows([[3, 0, 2], [0, 9, 4]])) == (
        (1, 3), "minor")
    assert traced(IntMatrix.from_rows([[6, 0, 0], [0, 10, 4]])) == (
        (2, 6), "minor")


def test_invariant_factors_fallback_when_the_certificate_fails(traced,
                                                               monkeypatch):
    # on S, the block the pivot split leaves, B scaled by delta'/p, p the
    # least prime of d_r, leaves delta' = p, and G = p^2 misses another
    # prime of d_r, failing (b), or p^2 | d_r, failing (a)
    rhs, fallbacks = _rhs, 0
    for A, t in planted_inputs():
        S = zlinalg._split_pivots(A)[1]
        piv, minor, low = _bareiss(S, rhs(S.rows))
        M0, d = abs(minor), max(smith_normal_form(S).diagonal)
        delta = M0 // gcd(M0, *_adjoint_columns(low, piv, S.cols))
        p = next((p for p in (2, 3, 5) if d % p == 0), d)
        if d in (1, p) or delta % p:
            continue
        monkeypatch.setattr(zlinalg, "_rhs", lambda n: [
            [delta // p * x for x in b] for b in rhs(n)])
        assert traced(A) == (t, "fallback")
        fallbacks += 1
    assert fallbacks >= 6


def test_invariant_factors_on_chain_differentials(monkeypatch):
    # the pivot split leaves most blocks nothing to eliminate: fewer than
    # half of them reach a Bareiss pass
    passes = []
    monkeypatch.setattr(zlinalg, "_bareiss", lambda A, extra=():
                        passes.append(A) or _bareiss(A, extra))
    rng = random.Random(27)
    stripped = blocks = 0
    for _ in range(80):
        C = random_int_chain(rng, max_deg=4, max_pieces=8)
        for D in C.differentials.values():
            assert invariant_factors(D) == smith_normal_form(D).diagonal
            stripped += not all(map(any, D.to_lists()))
            blocks += 1
    assert stripped >= 10
    assert 2 * len(passes) < blocks


def planted_pivots(rng, rows, cols):
    """A sparse rows x cols matrix of small entries in which up to
    min(rows, cols) planted pivots p, +-2, +-3 or +-4, divide their row and
    column; entries p.k, k in -2..2, of a pivot's row tie -p with p."""
    m = [[rng.choice((0, 0, 0, 0, 2, -2, 3, -4, 6, -6, 9))
          for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(0, min(rows, cols))):
        i, j, p = rng.randrange(rows), rng.randrange(cols), rng.choice(
            (2, -2, 3, -3, 4, -4))
        m[i] = [p * rng.randint(-2, 2) for _ in range(cols)]
        for row in m:
            row[j] = p * rng.randint(-2, 2)
        m[i][j] = p
    return IntMatrix.from_rows(m, cols)


def test_invariant_factors_split_dividing_pivots():
    # -2 leads its row and divides its column: it splits, and so does the
    # 20 it leaves
    assert zlinalg._split_pivots(IntMatrix.from_rows([[-2, 4], [6, 8]])) == (
        [2, 20], IntMatrix.zero(0, 0))
    # 3 and -3 tie in row 0, and only 3 divides its column
    A = IntMatrix.from_rows([[0, -3, 3, 6], [0, 5, 9, 0], [0, 0, 0, 0]])
    assert zlinalg._split_pivots(A) == ([3], IntMatrix.from_rows([[14, -18]]))
    assert invariant_factors(A) == smith_normal_form(A).diagonal == (1, 6, 0)
    # 2 divides its row but not its column, and 3 neither: nothing splits
    A = IntMatrix.from_rows([[2, 4], [3, 5]])
    assert zlinalg._split_pivots(A) == ([], A)
    assert invariant_factors(A) == (1, 2)
    rng = random.Random(33)
    seen = Counter()
    for _ in range(400):
        A = planted_pivots(rng, rng.randint(0, 8), rng.randint(0, 8))
        assert invariant_factors(A) == smith_normal_form(A).diagonal
        pivots, S = zlinalg._split_pivots(A)
        seen["split"] += any(p > 1 for p in pivots)
        seen["left"] += S.rows > 0
        seen["empty"] += not A.rows or not A.cols
        seen["zero line"] += 0 < A.rows and 0 < A.cols and not (
            all(map(any, A.to_lists())) and all(map(any, zip(*A.to_lists()))))
    assert min(seen.values()) >= 40


def test_invariant_factors_strip_zero_rows_and_columns(monkeypatch):
    # [[2, 3], [4, 3]] (Smith diagonal 1, 6; no entry that is least in its
    # row divides its row and its column, so no pivot splits off, also in
    # the transpose) with zero rows and columns: singular or not square as
    # it stands, its nonzero 2 x 2 block is nonsingular and takes the
    # |det|/delta modulus
    padded = [IntMatrix.from_rows(rows) for rows in (
        [[2, 0, 3], [0, 0, 0], [4, 0, 3]],
        [[0, 0, 0], [0, 2, 3], [0, 4, 3]],
        [[2, 0, 0, 3], [4, 0, 0, 3], [0, 0, 0, 0]],
        [[3, 2], [0, 0], [3, 4], [0, 0]])]
    assert determinant(padded[0]) == determinant(padded[1]) == 0
    shapes = []
    monkeypatch.setattr(zlinalg, "_bareiss", lambda A, extra=():
                        shapes.append((A.rows, A.cols, len(extra)))
                        or _bareiss(A, extra))
    for A in padded:
        zeros = (0,) * (min(A.rows, A.cols) - 2)
        assert invariant_factors(A) == (1, 6) + zeros
        assert invariant_factors(A.transpose()) == (1, 6) + zeros
        assert smith_normal_form(A).diagonal == (1, 6) + zeros
    assert set(shapes) == {(2, 2, 2)}


def test_rational_rank_matches_nonzero_diagonal():
    rng = random.Random(9)
    for _ in range(40):
        A = random_int_matrix(rng, max_size=5, bound=10)
        diag = smith_normal_form(A).diagonal
        assert rank(to_rational(A)) == sum(1 for d in diag if d)


def test_cokernel_examples():
    assert cokernel_structure(IntMatrix.from_rows([[2]])) == FinAbGroup(0, (2,))
    assert cokernel_structure(IntMatrix.zero(1, 1)) == FinAbGroup(1, ())
    assert cokernel_structure(IntMatrix.from_rows([[2, 4], [6, 8]])) \
        == FinAbGroup(0, (2, 4))


def test_finabgroup_validation():
    with pytest.raises(ValueError):
        FinAbGroup(0, (3, 2))
    with pytest.raises(ValueError):
        FinAbGroup(0, (1,))


def test_kernel_lattice_annihilates():
    rng = random.Random(10)
    for _ in range(30):
        A = random_int_matrix(rng, max_size=5, bound=8)
        basis = kernel_lattice(A)
        assert len(basis) == A.cols - sum(1 for d in smith_normal_form(A).diagonal if d)
        for v in basis:
            assert all(sum(A[i, j] * v[j] for j in range(A.cols)) == 0
                       for i in range(A.rows))


def test_rank_mod_p():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert rank_mod_p(A, 2) == 0
    assert rank_mod_p(A, 3) == 2
    assert rank_mod_p(IntMatrix.from_rows([[1, 2], [3, 4]]), 2) == 1
    with pytest.raises(ValueError):
        rank_mod_p(A, 4)


BIG_PRIME = 68719476767  # the least prime above 2^36


@pytest.mark.parametrize("p", [2, 3, 7, BIG_PRIME])
def test_rank_mod_p_forward_elimination_matches_references(p):
    """Rank over Z/p against the Smith diagonal (the entries p does not
    divide) on random matrices, on matrices of rank <= r and on p.X + L with
    L of rank <= r; and against the rational rank whenever p divides no
    nonzero invariant factor, as for the prime above 2^36 on the first two
    kinds."""
    rng = random.Random(p % 1000)
    rational = 0
    for k in range(60):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        r = rng.randint(0, min(rows, cols))
        if k % 3 == 0:
            A = random_int_matrix(rng, max_size=7, bound=20)
        else:
            A = random_low_rank_matrix(rng, rows, cols, r)
            if k % 3 == 2:
                A = IntMatrix(rows, cols, tuple(
                    p * rng.randint(-3, 3) + x for x in A.nums))
        got = rank_mod_p(A, p)
        diag = [d for d in smith_normal_form(A).diagonal if d]
        assert got == sum(1 for d in diag if d % p), (A, p)
        if all(d % p for d in diag):
            assert got == rank(to_rational(A))
            rational += 1
    assert rational >= (40 if p == BIG_PRIME else 1)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13}
    for n in range(15):
        assert is_prime(n) == (n in primes)
    for n in range(20000):
        assert is_prime(n) == (n > 1 and all(n % f for f in range(
            2, int(n ** 0.5) + 1)))
    assert is_prime(2 ** 61 - 1)
    assert is_prime(1000000000000000003)


def test_is_prime_rejects_strong_pseudoprimes():
    # 561 is a Carmichael number; the others are the least strong
    # pseudoprimes to the first 1, 4, 9 and 12 prime bases
    for n in (561, 2047, 3215031751, 3825123056546413051,
              318665857834031151167461):
        assert not is_prime(n)


def test_is_prime_refuses_to_guess_out_of_range():
    # the least strong pseudoprime to all bases 2..41, and a true prime above
    for n in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="cannot decide"):
            is_prime(n)
        with pytest.raises(ValueError, match="cannot decide"):
            rank_mod_p(IntMatrix.identity(1), n)
    # a witness still proves a large number composite
    assert not is_prime(3 * 3317044064679887385961981)
    assert not is_prime((2 ** 61 - 1) * (2 ** 89 - 1))


def test_int_matrix_refuses_what_it_cannot_hold():
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        IntMatrix(-1, 0, ())
    for bad in (1.7, "3", None):
        with pytest.raises(ValueError, match="must be ints"):
            IntMatrix.from_rows([[bad]])
    with pytest.raises(ValueError, match="must be ints"):
        IntMatrix(1, 1, (2.0,))
    assert IntMatrix.from_rows([[True, -5]]).entries == (1, -5)
    for A in (IntMatrix.from_rows([[True, -5]]), IntMatrix(1, 2, (False, 3))):
        assert all(type(e) is int for e in A.entries)


def test_int_matrix_shares_rational_storage():
    A = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert type(A.transpose()) is IntMatrix
    assert A.transpose().to_lists() == [[1, 4], [2, 5], [3, 6]]
    assert IntMatrix.zero(2, 1) == IntMatrix(2, 1, (0, 0))
    assert IntMatrix.identity(2).entries == (1, 0, 0, 1)
    assert to_rational(A).to_lists() == A.to_lists()
    assert A != to_rational(A)
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix.from_rows([[1, 2], [3]])
