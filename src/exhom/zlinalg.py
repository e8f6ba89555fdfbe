"""Exact integer linear algebra: the Smith diagonal, Smith normal form,
rank mod p and primality.

`IntMatrix` shares its integer storage and shape checks with
`qlinalg.RatMatrix` (`qlinalg._Dense`, a `RatMatrix` adding one
denominator); its entries are Python ints (arbitrary precision), and an
entry that `operator.index` refuses is refused.  Products go through the
dense kernel `qlinalg._int_products` (nonzero rows times nonzero
stride-slice columns).
Two routes to the Smith diagonal:

* `invariant_factors` builds no transforms.  It first splits off pivots
  over Z (Dumas-Saunders-Villard 2001): a +-1 in a row or, once no row
  holds one, the least nonzero |entry| p of a row that divides every entry
  of its row and of its column.  The pivot clears its column from the
  other rows with x - (f/p).y, a unimodular step, and its row is dropped:
  the column operations that would clear that row touch no other row, as
  its column is now zero there.  So A ~ diag(p_1, ..., p_k) + S for the k
  pivots and the rows S left, and the Smith diagonal of A is the divisor
  chain (`_divisor_chain`, a gcd/lcm exchange) of the |p_i| and the Smith
  diagonal of S.  An entry of S is a (k+1)-minor of A divided by the
  determinant of the pivot block (a Schur complement), a nonzero integer,
  so S is bounded as A's minors are.  An empty S needs nothing more, and
  zero rows and columns of S only pad the diagonal with zeros: from here on
  A names S without them.  A fraction-free (Bareiss) pass finds the rank r,
  the pivot columns and a nonzero r x r minor M0 = +-det P, P the pivot
  block (A on the pivot rows and columns), and carries two fixed columns B
  through the same row operations; back-substitution then gives
  Y = det(P).P^-1.B' (B' the pivot rows of B).  One elimination,
  `_smith_mod(A, M, r)`, diagonalises A modulo M and reads each diagonal
  entry e as gcd(e, M): SNF([A | M.I]) = diag(gcd(d_i, M))
  (Domich-Kannan-Trotter 1987, Hafner-McCurley 1991), so it gives
  gcd(d_i, M) for the r nonzero invariant factors d_i (all 1 when M = 1: no
  elimination).  Its pivot a has the least g = gcd(a, M).  Mod M, a and g
  are associates, so b in a's row or column with g | b clears in one step,
  q = (b/g).(a/g)^-1 mod M/g; any other b (e.g. [[2, 3]] mod 6) takes an
  xgcd step, which makes gcd(a, b) the pivot and at least halves g.  Only
  the pivot search, the pivot row and the entry below the pivot reduce mod
  M; a divisible row operation adds q.y < M^2 unreduced, at most
  bits(M) times per pivot (a pass per halving of g), so entries stay below
  max|A| + min(rows, cols).bits(M).M^2.  Each route's M:
  - A nonsingular n x n: M = gcd(det A, Y) = |det A| / delta, delta the
    denominator of A^-1.B.  delta divides d_n (d_n.A^-1 is integral), so
    d_1...d_{n-1} divides M, the elimination gives d_1..d_{n-1}, and
    d_n = |det A|/(d_1...d_{n-1}).
  - A singular or not square with M0 over 64 bits: G = delta'^2, delta' =
    M0 / gcd(M0, Y) the denominator of P^-1.B', when 1 < G < M0.  delta'
    divides d_r(P), and d_r(A) divides d_r(P): the torsion of coker A is a
    quotient of that of coker A[:, pivot columns] (the same rational span,
    a smaller image), which embeds in coker P (on that span the projection
    to the pivot rows is injective).  So G is usually a multiple of d_r with
    room to spare, but nothing guarantees it, and e = `_smith_mod(A, G, r)`
    is kept only if (a) every prime of e_r divides G / e_r and (b) Q, M0
    with every prime it shares with G divided out, is 1 or gives
    `_smith_mod(A, Q, r)` all ones.  Then e_i = d_i: a prime p of d_r
    divides D_r = d_1...d_r, which divides M0, and by (b) p divides G, so p
    divides e_r = gcd(d_r, G); by (a) p occurs in G to a higher power than
    in e_r, so v_p(e_r) = v_p(d_r) < v_p(G), hence v_p(e_i) = v_p(d_i) for
    every i.  Any other outcome takes M = M0.
  - Otherwise M = M0, a multiple of d_1...d_r.
  B sets how small the modulus is, never the answer: M is 1 or a few bits
  on most random square A (Eberly-Giesbrecht-Villard 2000).
  The Bareiss pass leaves a row with 0 in the pivot column as it is, where
  the eager pass would scale it by p_k/p_{k-1} at step k.  Over the skipped
  steps j+1..k these factors telescope to p_k/p_j, so the stored row is the
  eager one times at/prev, at = p_j the pivot of the row's last update and
  prev = p_k.  Its next update (p.x - f.y) // at, and x.prev // at when it
  becomes the pivot row, are then eager entries, minors of A: every
  division is exact, and the rank, the last pivot and the pivot rows right
  of their pivots are those of the eager pass.
* `smith_normal_form` is the only source of the unimodular U and V.  It
  re-picks the minimal-absolute-value nonzero entry as pivot, which keeps
  the growth of the transforms polynomial, but they still reach tens of
  thousands of bits on an 80 x 80 matrix.
"""

from __future__ import annotations

from math import gcd
from operator import index

from ._record import Record, _set
from .qlinalg import _columns, _Dense, _int_products


def _index(x) -> int:
    """x as an int; a float or a string is refused, not truncated or parsed."""
    try:
        return index(x)
    except TypeError:
        raise ValueError("IntMatrix entries must be ints") from None


class IntMatrix(_Dense):
    """Dense integer matrix: Python int entries, `nums` itself."""

    def __post_init__(self):
        super().__post_init__()
        if not set(map(type, self.nums)) <= {int}:
            _set(self, "nums", tuple(map(_index, self.nums)))
        _set(self, "entries", self.nums)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        return IntMatrix(self.rows, other.cols, tuple(_int_products(
            self._num_rows(), _columns(other.nums, other.cols))))


class SmithForm(Record):
    """Decomposition U.A.V = D with U, V unimodular and D in Smith form."""

    def __init__(self, U: IntMatrix, D: IntMatrix, V: IntMatrix,
                 diagonal: tuple[int, ...]):
        _set(self, "U", U)
        _set(self, "D", D)
        _set(self, "V", V)
        _set(self, "diagonal", diagonal)


class FinAbGroup(Record):
    """Finitely generated abelian group Z^free_rank + sum of Z/t_i.

    Torsion entries are >= 2 and form a divisibility chain t_1 | t_2 | ...
    """

    def __init__(self, free_rank: int, torsion: tuple[int, ...]):
        _set(self, "free_rank", free_rank)
        _set(self, "torsion", torsion)
        self.__post_init__()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion is not a divisibility chain")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion entries must be >= 2")

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _bareiss(A: IntMatrix,
             extra=()) -> tuple[list[int], int, list[list[int]]]:
    """Pivot columns of A and, by fraction-free elimination, its last pivot.

    Rows are swapped to find pivots and columns without one are skipped, so
    the rank r is the number of pivot columns and the last pivot is, up to
    sign, the nonzero r x r minor on the pivot rows and columns (1 when
    r = 0).  It is returned times the sign of the row swaps, which makes it
    det A when A is square of full rank.  The columns of `extra` take every
    row operation but give no pivot; the eliminated rows are returned too,
    unreduced left of their pivots.  A row with 0 in the pivot column is
    left alone (at[i]: the pivot of its last update) and scaled by
    prev / at[i] when it becomes the pivot row.
    """
    rows, cols = A.rows, A.cols
    m = [list(A.row(i)) + [b[i] for b in extra] for i in range(rows)]
    at = [1] * rows
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
            at[r], at[pr] = at[pr], at[r]
            sign = -sign
        if at[r] != prev:
            m[r][c:] = [x * prev // at[r] for x in m[r][c:]]
        top = m[r][c + 1:]
        p = m[r][c]
        for i in range(r + 1, rows):
            mi = m[i]
            f = mi[c]
            if f:
                d, at[i] = at[i], p
                mi[c + 1:] = [(p * x - f * y) // d
                              for x, y in zip(mi[c + 1:], top)]
        prev = p
        piv.append(c)
    return piv, sign * prev, m


# one period of the fixed columns B: entry i of column j is
# (i^2 + (2j+3).i + j + 1) mod 41 - 20, which repeats every 41 rows
_B = tuple(tuple((i * i + (2 * j + 3) * i + j + 1) % 41 - 20
                 for i in range(41)) for j in range(2))


def _rhs(n: int) -> list[tuple[int, ...]]:
    """The two fixed columns B of length n that `invariant_factors` solves."""
    return [(b * (n // 41 + 1))[:n] for b in _B]


def _adjoint_columns(m: list[list[int]], piv: list[int],
                     cols: int) -> list[int]:
    """p.P^-1.b for every extra column b `_bareiss` carried past the `cols`
    columns of A, on the pivot rows of b, P the nonsingular r x r block of
    A on its pivot rows and columns `piv` (r > 0) and p = +-det P its last
    pivot: O(r^2) each, divisions exact (p.P^-1 is +-adj P), all in one
    list."""
    r = len(piv)
    u = [[row[j] for j in piv] + row[cols:] for row in m[:r]]
    p, ys = u[r - 1][r - 1], []
    for c in range(r, len(u[0])):
        y = [0] * r
        for i in reversed(range(r)):
            s = sum(a * b for a, b in zip(u[i][i + 1:r], y[i + 1:]))
            y[i] = (p * u[i][c] - s) // u[i][i]
        ys += y
    return ys


def _divisor_chain(xs: list[int]) -> list[int]:
    """The Smith diagonal of diag(xs), xs positive: gcd/lcm exchange makes
    every entry divide all later ones and keeps the product."""
    xs = list(xs)
    for i in range(len(xs)):
        if xs[i] == 1:
            continue
        for j in range(i + 1, len(xs)):
            g = gcd(xs[i], xs[j])
            xs[i], xs[j] = g, xs[i] // g * xs[j]
    return xs


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, u) with g = gcd(a, b) = s*a + u*b, for a, b > 0."""
    s0, s1, u0, u1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    return a, s0, u0


def _coprime_part(x: int, y: int) -> int:
    """x > 0 with every prime it shares with y divided out; no factoring."""
    while (g := gcd(x, y)) > 1:
        x //= g
    return x


def _smith_mod(A: IntMatrix, M: int, r: int) -> list[int]:
    """gcd(d_i, M) for the r nonzero invariant factors d_i of A (M > 0):
    the first r entries of the Smith diagonal of [A | M.I], found by
    elimination modulo M, reduced only where a value is read."""
    if M == 1:
        return [1] * r
    rows, cols = A.rows, A.cols
    m = [list(A.row(i)) for i in range(rows)]
    diag = []
    for t in range(min(rows, cols)):
        # pivot: an entry of least gcd with M, skipping rows whose own gcd
        # with M is no less; the scan stops at the last diagonal gcd (or 1)
        least, pos, stop = M, None, diag[-1] if diag else 1
        for i in range(t, rows):
            if gcd(M, *m[i][t:]) < least:
                for j, x in enumerate(m[i][t:], t):
                    if (g := gcd(x, M)) < least:
                        least, pos = g, (i, j)
                        if g <= stop:
                            break
                if least <= stop:
                    break
        if pos is None:
            break
        i, j = pos
        m[t], m[i] = m[i], m[t]
        if j != t:
            for row in m[t:]:  # rows above t are zero from column t on
                row[t], row[j] = row[j], row[t]
        while True:
            # clear column t below the pivot a with row operations
            top = [x % M for x in m[t][t:]]
            g, inv = gcd(a := top[0], M), 0
            for i in range(t + 1, rows):
                mi = m[i]
                b = mi[t] % M
                if not b:
                    continue
                low = mi[t:]
                if b % g == 0:
                    inv = inv or pow(a // g, -1, M // g)
                    q = b // g * inv % (M // g)
                    mi[t:] = [x - q * y for x, y in zip(low, top)]
                    continue
                h, s, u = _xgcd(a, b)
                a, b = a // h, b // h
                top, mi[t:] = (
                    [(s * x + u * y) % M for x, y in zip(top, low)],
                    [(a * y - b * x) % M for x, y in zip(top, low)])
                g, inv = gcd(a := top[0], M), 0
            m[t][t:] = top
            # clear row t right of the pivot with column operations: an entry
            # g divides vanishes (column t is 0 mod M below the pivot), and a
            # gcd step refills column t and sends the loop back to the rows
            mt = m[t]
            for j in range(t + 1, cols):
                b = mt[j]
                if b % g == 0:
                    mt[j] = 0
                    continue
                h, s, u = _xgcd(a, b)
                a = a // h
                mt[t], mt[j] = h, 0
                for i in range(t + 1, rows):
                    y = m[i][j]
                    if y:
                        m[i][t], m[i][j] = u * y % M, a * y % M
                break
            else:
                break
        diag.append(g)
    # an entry that vanished mod M, or a row never reached, has factor M;
    # mod M more than r entries can be nonzero (diag(4, 3) ~ diag(1, 12))
    return _divisor_chain(diag + [M] * (r - len(diag)))[:r]


def _split_pivots(A: IntMatrix) -> tuple[list[int], IntMatrix]:
    """(pivots, S): |p| for each pivot p taken over Z, S the rest less its
    zero rows and columns.  A +-1 in a row is a pivot; once no row holds
    one, so is a least nonzero |entry| p of a row (+p before -p) if p
    divides its row and its column.  A row is searched again once a step
    changes it."""
    m = {i: list(row) for i in range(A.rows) if any(row := A.row(i))}
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
            p = min(filter(None, map(abs, row)), default=0)
            if not p or any(x % p for x in row):
                continue
            j = row.index(p) if p in row else row.index(-p)
            if any(other[j] % p for other in m.values()):
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
    if len(rows) == A.rows and len(keep) == A.cols:
        return pivots, A
    return pivots, IntMatrix(len(rows), len(keep), tuple(
        row[j] for row in rows for j in keep))


def _certified(A: IntMatrix, G: int, minor: int,
               r: int) -> list[int] | None:
    """e = `_smith_mod(A, G, r)` when two checks prove it the nonzero Smith
    diagonal of A, else None; `minor` is a nonzero r x r minor of A, r the
    rank.  (a): every prime of e_r divides G / e_r; (b): Q, `minor` with
    the primes it shares with G divided out, is 1 or `_smith_mod(A, Q, r)`
    is all ones."""
    e = _smith_mod(A, G, r)
    if _coprime_part(e[-1], G // e[-1]) > 1:
        return None
    Q = _coprime_part(abs(minor), G)
    return e if Q == 1 or _smith_mod(A, Q, r) == [1] * r else None


def invariant_factors(A: IntMatrix) -> tuple[int, ...]:
    """The Smith diagonal of A without transforms.

    Equals `smith_normal_form(A).diagonal`: min(rows, cols) non-negative
    entries in a divisibility chain, zeros last.  The pivots split off over
    Z and the nonzero factors of the block they leave, found modulo M,
    merge into one chain by gcd/lcm exchange.
    """
    k = min(A.rows, A.cols)
    pivots, A = _split_pivots(A)
    chain = []
    if A.rows:
        piv, minor, low = _bareiss(A, _rhs(A.rows))
        r, M0 = len(piv), abs(minor)
        square = 0 < r == A.rows == A.cols
        solve = square or M0.bit_length() > 64
        M = gcd(M0, *(_adjoint_columns(low, piv, A.cols) if solve else ()))
        if square:
            # mod |det|/delta only d_1..d_{n-1} are exact; |det| gives d_n
            chain = _smith_mod(A, M, r)
            chain[-1] = M0
            for d in chain[:-1]:
                chain[-1] //= d
        else:
            G = (M0 // M) ** 2  # delta'^2, 1 when nothing was solved
            chain = (1 < G < M0 and _certified(A, G, M0, r)
                     or _smith_mod(A, M0, r))
    chain = _divisor_chain(sorted(pivots + chain))
    return tuple(chain) + (0,) * (k - len(chain))


def _find_pivot(m, t, rows, cols):
    """Minimal-absolute-value nonzero entry of the block m[t:, t:].

    Re-selected on every reduction pass; this is what keeps coefficient
    growth polynomial instead of doubly exponential.
    """
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            if m[i][j] != 0:
                if best is None or abs(m[i][j]) < abs(m[best[0]][best[1]]):
                    best = (i, j)
    return best


def smith_normal_form(A: IntMatrix) -> SmithForm:
    """Smith normal form U.A.V = D with invariant-factor diagonal.

    Use it when U or V is needed; `invariant_factors` gives the diagonal
    alone far faster.
    """
    rows, cols = A.rows, A.cols
    m = A.to_lists()
    u = IntMatrix.identity(rows).to_lists()
    v = IntMatrix.identity(cols).to_lists()
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
            pos = _find_pivot(m, t, rows, cols)
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
            offender = None
            p = m[t][t]
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # add offending row to the pivot row

    # normalize diagonal signs
    for t in range(k):
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]

    U = IntMatrix.from_rows(u, rows)
    V = IntMatrix.from_rows(v, cols)
    D = IntMatrix.from_rows(m, cols)
    diagonal = tuple(m[t][t] for t in range(k))
    return SmithForm(U=U, D=D, V=V, diagonal=diagonal)


def _rank_mod_p(A: IntMatrix, p: int) -> int:
    """Rank of A over the field Z/p, p prime (not tested here).  Each step
    takes a row off, pivots on its first nonzero entry and clears that
    column from the rows that hold it; a row is dropped once it is zero mod
    p, and the pivot row itself is never scaled."""
    m = [row for row in ([e % p for e in A.row(i)] for i in range(A.rows))
         if any(row)]
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


# Miller-Rabin with the prime bases 2..41 has no strong pseudoprime below
# this bound (Sorenson-Webster 2017), so it decides primality exactly there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    A witness among the bases proves n composite at any size; n that passes
    every base is certified prime only below 3317044064679887385961981, and
    above it a ValueError is raised rather than a guess returned.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"cannot decide whether {n} is prime: Miller-Rabin "
                         f"is exact only below {_MR_EXACT_BELOW}")
    return True
