"""Exact integer linear algebra: the Smith diagonal, Smith normal form,
rank mod p and primality.

An integer matrix is a column store over den 1 (`qlinalg.RatMatrix`), as
a chain complex or a matrix document holds it.  `_split_pivots` reads its
nonzero rows once, over its nonzero columns, into int row lists, which the
routines after it work on; `_rank_mod_p` reduces its columns mod p.  Only
`smith_normal_form` reads all of it, into dense rows of its own; the store
is the only form a matrix takes, and nothing here imports `fractions`.
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
  so S is bounded as A's minors are.
  A chain complex's differential (`_chain_factors`: `homology_int`, `uct`)
  then hands S to a Euclid phase over Z (`_euclid`; Kannan-Bachem 1979,
  Dumas-Heckenbach-Saunders-Welker 2003).  Its pivot p, an entry of least
  |value|, clears its column by row steps x - floor(f/p).y, then reduces
  its row mod p by column steps, which change that row alone; while a
  remainder is left, the least one becomes the pivot.  Once its row and
  column hold p alone, |p| joins the pivots and both are dropped.  Each
  step is unimodular, so the answer is still the divisor chain, and |p|
  falls each time the pivot moves, so every pivot ends.  The phase stops
  before it writes an entry over 64 bits (`_EUCLID_BITS`), and the rows
  as they stand take the route below.  `snf`
  does not take it: on snf-dense (seed 1) it took 4.5 -> 10.1 ms a matrix
  (4.0 -> 4.7 with a 32-bit stop), and density does not separate the two
  (0.73-0.98 there, 0.17-1.0 and median 0.50 on chain-uct).
  An empty S needs nothing more.  From here on A names S, or the rows the
  phase stopped on; zero rows and columns only pad the diagonal with
  zeros.  A three-step fraction-free (Bareiss) pass finds the rank r, the
  pivot columns and a nonzero r x r minor M0 = +-det P, P the pivot block
  (A on the pivot rows and columns), and carries two fixed columns B
  (entry i of column j is (i^2 + (2j+3).i + j + 1) mod 41 - 20) through
  the same row operations; back-substitution then gives the entries of
  Y = det(P).P^-1.B' (B' the pivot rows of B) a row at a time, from the
  last pivot row up, and the running gcd(M0, Y) stops drawing them at 1,
  which no later entry can lower.  One elimination,
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
  - Any other A, whatever the size of M0: G = delta'^2, delta' =
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
    every i.  Any other outcome takes M = M0, a multiple of d_1...d_r.
  B sets how small the modulus is, never the answer: M is 1 or a few bits
  on most random square A (Eberly-Giesbrecht-Villard 2000), and at M = 1
  most of Y is never built.
  The Bareiss pass takes steps k, k+1 and k+2 in one update where it can
  (Bareiss 1968; by Sylvester's identity each quotient is a minor of A),
  and steps k and k+1 where no third pivot follows.  It leaves a row with
  0 in its pivot columns as it is, where the eager pass would scale it by
  p_k/p_{k-1} at step k.  Over the skipped steps j+1..k these factors
  telescope to p_k/p_j, so the stored row is the eager one times at/prev,
  at = p_j the pivot of the row's last update and prev = p_k.  A single
  step (p.x - f.y) // at, and x.prev // at before a multistep or a pivot,
  then give eager entries, minors of A: every division is exact, and the
  rank, the last pivot and the pivot rows right of their pivots are those
  of the eager pass.
* `smith_normal_form` is the only source of the unimodular U and V.  They
  ride with A in one augmented matrix [[A, I], [I, 0]], so each row step
  moves U and each column step moves V with A.  It re-picks the
  minimal-absolute-value nonzero entry as pivot, which keeps the growth of
  the transforms polynomial, but they still reach tens of thousands of bits
  on an 80 x 80 matrix.
"""

from _operator import mul
from math import gcd, prod

from ._record import Record
from .qlinalg import RatMatrix


class SmithForm(Record):
    """Decomposition U.A.V = D with U, V unimodular and D in Smith form."""

    _fields = ("U", "D", "V", "diagonal")


class FinAbGroup(Record):
    """Finitely generated abelian group Z^free_rank + sum of Z/t_i.

    Torsion entries are >= 2 and form a divisibility chain t_1 | t_2 | ...
    """

    _fields = ("free_rank", "torsion")

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion entries must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion is not a divisibility chain")


def _bareiss(A: list[list[int]],
             extra=()) -> tuple[list[int], int, list[list[int]]]:
    """Pivot columns of the rows A and, by fraction-free elimination, its
    last pivot.

    Rows are swapped to find pivots and columns without one are skipped, so
    the rank r is the number of pivot columns and the last pivot is, up to
    sign, the nonzero r x r minor on the pivot rows and columns (1 when
    r = 0).  It is returned times the sign of the row swaps, which makes it
    det A when A is square of full rank.  The columns of `extra` take every
    row operation but give no pivot; the eliminated rows are returned too,
    unreduced left of their pivots.

    A pass eliminates columns c, c + 1 and c + 2 at once where it can
    (Bareiss 1968, the three-step case of Sylvester's identity).  Row r,
    y0 = (a00, a01, ...) from column c on, pivots on a00; the first row
    below with a00.x1 != x0.a01 (x0, x1, x2 its entries in c, c + 1,
    c + 2) moves to r + 1, y1 = (a10, a11, ...), and takes one step; the
    first row below that with a nonzero 3 x 3 minor on rows r, r + 1 and
    itself, x0.k0 + x1.k1 + x2.k2 for k the 2 x 2 cofactors of rows r and
    r + 1, moves to r + 2, y2, and takes a two-step, which gives the third
    pivot d.  A row below with x0 or x1 != 0 is updated once,
    (d.x - f0.y0 - f1.y1 - f2.y2) // prev with y0, y1, y2 as they were
    before the pass and f = (x0, x1, x2).adj P // prev^2, P their 3 x 3
    block: 4 products and one exact division an entry for three columns.
    With no y2, or fewer than four rows or three columns left, the pass is
    a two-step: a row below with x0 != 0 is updated once,
    (b.x + e1.y1 + e2.y0) // prev with b the 2 x 2 leading minor over prev,
    e1 = (a01.x0 - a00.x1) // prev and e2 = (a10.x1 - a11.x0) // prev.
    With no y1, or fewer than three rows or two columns left, it is one
    step on column c.  A column searched in vain for y1 or y2 is zero
    below and skipped.  A row whose lead is 0 but in the pass's last pivot
    column takes one step against the last pivot row, and a row whose lead
    is all 0 is left as it is.  A single step is (p.x - f.y) // at[i],
    at[i] the pivot of row i's last update.
    """
    rows, cols = len(A), len(A[0]) if A else 0
    m = [row + [b[i] for b in extra] for i, row in enumerate(A)]
    at = [1] * rows
    sign, prev, piv, c = 1, 1, [], 0

    def take(i, s):
        """Row s, swapped into row i, brought to prev from column c on."""
        nonlocal sign
        if s != i:
            m[i], m[s] = m[s], m[i]
            at[i], at[s] = at[s], at[i]
            sign = -sign
        y = m[i]
        if at[i] != prev:
            y[c:] = [x * prev // at[i] for x in y[c:]]
        return y

    while c < cols and (r := len(piv)) < rows:
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            c += 1
            continue
        y0, n, skip = take(r, pr), 1, 0
        a00 = y0[c]
        if r + 2 < rows and c + 1 < cols:
            a01, skip = y0[c + 1], 1
            s = next((i for i in range(r + 1, rows)
                      if a00 * m[i][c + 1] != m[i][c] * a01), 0)
            if s:
                y1, n = take(r + 1, s), 2
                a10, a11, t0, t1 = y1[c], y1[c + 1], y0[c + 2:], y1[c + 2:]
                if r + 3 < rows and c + 2 < cols:
                    a02, a12, skip = t0[0], t1[0], 2
                    b = (a00 * a11 - a01 * a10) // prev
                    k2 = (a01 * a12 - a02 * a11, a02 * a10 - a00 * a12,
                          b * prev)
                    s = next((i for i in range(r + 2, rows)
                              if sum(map(mul, k2, m[i][c:c + 3]))), 0)
                    if s:
                        y2, n = take(r + 2, s), 3
                        a20, a21, a22 = y2[c:c + 3]
                        e1 = (a01 * a20 - a00 * a21) // prev
                        e2 = (a10 * a21 - a11 * a20) // prev
                        t2 = y2[c + 3:]
                        y2[c + 2:] = [(b * x + e1 * y + e2 * z) // prev
                                      for x, y, z in zip(y2[c + 2:], t1, t0)]
                        # cofactors of P by rows: x.u is det P, row 0 read as x
                        (u0, u1, u2), (v0, v1, v2), (w0, w1, w2) = (
                            (a11 * a22 - a12 * a21, a12 * a20 - a10 * a22,
                             e2 * prev),
                            (a02 * a21 - a01 * a22, a00 * a22 - a02 * a20,
                             e1 * prev), k2)
                        q, t0, t1 = prev * prev, t0[1:], t1[1:]
                y1[c + 1:] = [(a00 * x - a10 * y) // prev
                              for x, y in zip(y1[c + 1:], y0[c + 1:])]
        k = c + n - 1
        p, top = m[r + n - 1][k], m[r + n - 1][k + 1:]
        for i in range(r + n, rows):
            mi = m[i]
            if n > 1 and (mi[c] or n > 2 and mi[c + 1]):  # a multistep
                if at[i] != prev:
                    mi[c:] = [x * prev // at[i] for x in mi[c:]]
                if n == 2:
                    x0, x1 = mi[c], mi[c + 1]
                    e1 = (a01 * x0 - a00 * x1) // prev
                    e2 = (a10 * x1 - a11 * x0) // prev
                    mi[c + 2:] = [(p * x + e1 * y + e2 * z) // prev
                                  for x, y, z in zip(mi[c + 2:], t1, t0)]
                else:
                    x0, x1, x2 = mi[c:c + 3]
                    f0 = (x0 * u0 + x1 * u1 + x2 * u2) // q
                    f1 = (x0 * v0 + x1 * v1 + x2 * v2) // q
                    f2 = (x0 * w0 + x1 * w1 + x2 * w2) // q
                    mi[c + 3:] = [(p * x - f0 * u - f1 * v - f2 * w) // prev
                                  for x, u, v, w in zip(mi[c + 3:], t0, t1,
                                                        t2)]
                at[i] = p
            elif f := mi[k]:
                d, at[i] = at[i], p
                mi[k + 1:] = [(p * x - f * y) // d
                              for x, y in zip(mi[k + 1:], top)]
        prev = p
        piv += range(c, k + 1)
        c += 1 + skip  # a skipped column has no pivot and is zero below
    return piv, sign * prev, m


def _rhs(n: int) -> list[list[int]]:
    """The two fixed columns B of length n that `invariant_factors` solves:
    entry i of column j is (i^2 + (2j+3).i + j + 1) mod 41 - 20."""
    return [[(i * i + (2 * j + 3) * i + j + 1) % 41 - 20 for i in range(n)]
            for j in range(2)]


def _adjoint_columns(m: list[list[int]], piv: list[int], cols: int):
    """The entries of p.P^-1.b for every extra column b `_bareiss` carried
    past the `cols` columns of A, on the pivot rows of b, P the nonsingular
    r x r block of A on its pivot rows and columns `piv` (r > 0) and
    p = +-det P its last pivot: O(r^2) each, divisions exact (p.P^-1 is
    +-adj P).  A generator: back-substitution runs on every column at once,
    from the last pivot row up, and yields each row's entries as it finds
    them, so a caller that stops drawing skips the rest."""
    r = len(piv)
    u = [[row[j] for j in piv] + row[cols:] for row in m[:r]]
    p, ys = u[r - 1][r - 1], [[0] * r for _ in u[0][r:]]
    for i in reversed(range(r)):
        for c, y in enumerate(ys, r):
            s = sum(map(mul, u[i][i + 1:r], y[i + 1:]))
            y[i] = (p * u[i][c] - s) // u[i][i]
            yield y[i]


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


def _smith_mod(A: list[list[int]], M: int, r: int) -> list[int]:
    """gcd(d_i, M) for the r nonzero invariant factors d_i of the rows A
    (M > 0): the first r entries of the Smith diagonal of [A | M.I], found
    by elimination modulo M, reduced only where a value is read."""
    if M == 1:
        return [1] * r
    rows, cols = len(A), len(A[0]) if A else 0
    m = [row[:] for row in A]
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


def _integral(A: RatMatrix) -> None:
    if A.den != 1:
        raise ValueError(f"not an integer matrix: entries over {A.den}")


def _split_pivots(A: RatMatrix) -> tuple[list[int], list[list[int]]]:
    """(pivots, S): |p| for each pivot p taken over Z from the den-1 store
    A, S the rows of the rest of A less its zero rows and columns.  A +-1
    in a row is a pivot; once no row holds one, so is an entry +-p (+p
    first) of a row whose gcd is p, if p divides its column.  A row is
    searched again once a step changes it.  Only the nonzero rows of A,
    ascending, are read, and only over its nonzero columns."""
    columns = list(filter(None, A.columns))
    m = {i: [0] * len(columns) for i in sorted(set().union(*columns))}
    for j, col in enumerate(columns):
        for i, x in col.items():
            m[i][j] = x
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
    if len(keep) < len(columns):
        rows = [[row[j] for j in keep] for row in rows]
    return pivots, rows


_EUCLID_BITS = 64  # bits of the widest entry `_euclid` writes


def _euclid(rows: list[list[int]], pivots: list[int]) -> list[list[int]]:
    """Split every pivot off the rows by Euclid steps over Z, appending each
    |p| to `pivots`; the rows left are none, or the rows as they stand
    once a step would write an entry over `_EUCLID_BITS` bits."""
    bound = 1 << _EUCLID_BITS
    while rows := [row for row in rows if any(row)]:
        i = min(range(len(rows)),
                key=lambda h: min(filter(None, map(abs, rows[h]))))
        p = min(filter(None, rows[i]), key=abs)
        j = rows[i].index(p)
        while True:
            # clear column j; the least remainder left becomes the pivot
            y, k = rows[i], None
            for h, x in enumerate(rows):
                if h != i and (f := x[j]):
                    q = f // p
                    x = [a - q * b for a, b in zip(x, y)]
                    if max(x) >= bound or min(x) <= -bound:
                        return rows
                    rows[h] = x
                    if x[j] and (k is None or abs(x[j]) < abs(rows[k][j])):
                        k = h
            if k is not None:
                i, p = k, rows[k][j]
                continue
            # reduce row i mod p, by column steps that change it alone
            y = rows[i] = [x % p for x in y]
            r = min(filter(None, y), key=abs, default=0)
            y[j] = p
            if not r:
                pivots.append(abs(p))
                del rows[i]
                break
            j, p = y.index(r), r
    return rows


def _certified(A: list[list[int]], G: int, minor: int,
               r: int) -> list[int] | None:
    """e = `_smith_mod(A, G, r)` when two checks prove it the nonzero Smith
    diagonal of the rows A, else None; `minor` is a nonzero r x r minor of
    A, r the rank.  (a): every prime of e_r divides G / e_r; (b): Q,
    `minor` with the primes it shares with G divided out, is 1 or
    `_smith_mod(A, Q, r)` is all ones."""
    e = _smith_mod(A, G, r)
    if _coprime_part(e[-1], G // e[-1]) > 1:
        return None
    Q = _coprime_part(abs(minor), G)
    return e if Q == 1 or _smith_mod(A, Q, r) == [1] * r else None


def invariant_factors(A: RatMatrix) -> tuple[int, ...]:
    """The Smith diagonal of the integer matrix A, a den-1 store, without
    transforms; a ValueError if den != 1.

    Equals `smith_normal_form(A).diagonal`: min(rows, cols) non-negative
    entries in a divisibility chain, zeros last.  The pivots split off over
    Z and the nonzero factors of the block they leave, found modulo M,
    merge into one chain by gcd/lcm exchange.
    """
    return _chain_factors(A, euclid=False)


def _chain_factors(A: RatMatrix, euclid: bool = True) -> tuple[int, ...]:
    """`invariant_factors(A)`; for a chain complex's differential (euclid)
    the block the split leaves first takes the Euclid phase."""
    _integral(A)
    k = min(A.rows, A.cols)
    pivots, A = _split_pivots(A)
    if euclid and A:
        A = _euclid(A, pivots)
    chain = []
    if A:
        rows, cols = len(A), len(A[0])
        piv, minor, low = _bareiss(A, _rhs(rows))
        r, M0 = len(piv), abs(minor)
        M = M0
        for y in _adjoint_columns(low, piv, cols):
            if (M := gcd(M, y)) == 1:
                break  # no later entry can lower it
        if r == rows == cols:
            # mod |det|/delta only d_1..d_{n-1} are exact; |det| gives d_n
            chain = _smith_mod(A, M, r)
            chain[-1] = M0 // prod(chain[:-1])
        else:
            G = (M0 // M) ** 2  # delta'^2
            chain = (1 < G < M0 and _certified(A, G, M0, r)
                     or _smith_mod(A, M0, r))
    chain = _divisor_chain(sorted(pivots + chain))
    return tuple(chain) + (0,) * (k - len(chain))


def smith_normal_form(A: RatMatrix) -> SmithForm:
    """Smith normal form U.A.V = D with invariant-factor diagonal, for the
    integer matrix A, a den-1 store (a ValueError if den != 1); U, D and V
    are den-1 stores, sliced at the end out of one matrix
    [[A, I_rows], [I_cols, 0]]: a row step on its first rows rows moves U
    with A, a column step on its first cols columns moves V with A.

    Use it when U or V is needed; `invariant_factors` gives the diagonal
    alone far faster.
    """
    _integral(A)
    rows, cols = A.rows, A.cols
    m = [[0] * cols + [int(i == j) for j in range(rows)] for i in range(rows)]
    m += [[int(i == j) for j in range(cols)] + [0] * rows for i in range(cols)]
    for j, col in enumerate(A.columns):
        for i, x in col.items():
            m[i][j] = x
    k = min(rows, cols)
    for t in range(k):
        while True:
            # the first nonzero entry of least |value| in A[t:, t:],
            # re-picked on every pass, keeps the growth polynomial
            pos = min(((i, j) for i in range(t, rows) for j in range(t, cols)
                       if m[i][j]), key=lambda ij: abs(m[ij[0]][ij[1]]),
                      default=None)
            if pos is None:
                break
            i, j = pos
            m[t], m[i] = m[i], m[t]
            for row in m:
                row[t], row[j] = row[j], row[t]
            # one reduction pass against the current (minimal) pivot
            changed = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    changed = changed or m[i][t] != 0
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= q * row[t]
                    changed = changed or m[t][j] != 0
            if changed:
                continue  # leftover remainders are smaller; re-pick the pivot
            p = m[t][t]
            offender = next((i for i in range(t + 1, rows)
                             if any(x % p for x in m[i][t + 1:cols])), None)
            if offender is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
    for t in range(k):  # normalize diagonal signs
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
    U = RatMatrix.from_rows([row[cols:] for row in m[:rows]], rows)
    V = RatMatrix.from_rows([row[:cols] for row in m[rows:]], cols)
    D = RatMatrix.from_rows([row[:cols] for row in m[:rows]], cols)
    return SmithForm(U, D, V, tuple(m[t][t] for t in range(k)))


def _rank_mod_p(D: RatMatrix, p: int) -> int:
    """Rank of the column store D (den 1) over Z/p, p prime (not tested
    here), by the pairing's column reduction: while a column's low, its
    greatest nonzero row, holds a pivot, a multiple of it clears that row;
    a column left nonzero is kept at its low, so the kept lows differ."""
    pivots: dict[int, tuple[dict, int]] = {}  # low -> (column, 1 / its low)
    for col in D.columns:
        v = {}
        for i, x in col.items():
            if x := x % p:
                v[i] = x
        while v and (low := max(v)) in pivots:
            pv, inv = pivots[low]
            f = v[low] * inv % p
            for i, y in pv.items():
                if x := (v.get(i, 0) - f * y) % p:
                    v[i] = x
                else:
                    del v[i]
        if v:
            pivots[low] = v, pow(v[low], -1, p)
    return len(pivots)


# Miller-Rabin with the prime bases 2..41 has no strong pseudoprime below
# this bound (Sorenson-Webster 2017), so it decides primality exactly there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
# OEIS A014233: the least strong pseudoprime to each of the first k prime
# bases (Jaeschke 1993; Sorenson-Webster 2017), so below term k the first k
# bases decide primality.
_MR_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747,
                    3474749660383, 341550071728321, 341550071728321,
                    3825123056546413051, 3825123056546413051,
                    3825123056546413051, 318665857834031151167461,
                    _MR_EXACT_BELOW)


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    A witness among the bases proves n composite at any size; the bases are
    tried in order until n is below the least strong pseudoprime to those
    tried (A014233).  n that passes every base is certified prime only
    below 3317044064679887385961981, and above it a ValueError is raised
    rather than a guess returned.
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
    for a, below in zip(_MR_BASES, _MR_PSEUDOPRIMES):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < below:
            return True
    raise ValueError(f"cannot decide whether {n} is prime: Miller-Rabin "
                     f"is exact only below {_MR_EXACT_BELOW}")
