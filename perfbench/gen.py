"""Seeded known-answer inputs for the exhom benchmark.

Every input is built from pieces whose homology is known, then hidden behind
random unimodular changes of basis, so the expected output of each request
follows from the construction alone and never from exhom:

* ``ss-zigzag``: direct sums of staircase zigzags and lone cells on a 4x4
  grid.  A zigzag of length r has generators x_0..x_{r-1} at (p+i, q-i) and
  y_1..y_r at (p+j, q-j+1) in the coordinates of the axis it is built for;
  its total complex is acyclic and, on that axis, it carries exactly one
  rank-one d_r from (p, q) to (p+r, q-r+1).  On the other axis it dies on
  the zeroth page.  Lone cells survive to the limit on both axes.
* ``snf-dense``: integer matrices, half uniform in [-20, 20] (checked by
  invariants computed here: Bareiss determinant, rank, ranks mod small
  primes) and half planted as U.diag(t).V with a known torsion chain t.
* ``chain-uct``: integer chain complexes built from arrows a -> m.b and
  lone generators; the universal-coefficient table follows from the
  multiplicities.

Run as a script it writes the documents and a manifest of requests with
their expected answers into a directory:

    python3 perfbench/gen.py --workload ss-zigzag --seed 1 --groups 40 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
from math import gcd
from typing import Dict, List, Tuple

WORKLOADS = ("ss-zigzag", "snf-dense", "chain-uct")

GRID = 3                      # max_r = max_c: a 4x4 grid of cells
ZIGZAG_DIMS = range(16, 31, 2)  # total dimension of one ss-zigzag document
ZIGZAG_DENSITY = 0.2          # off-diagonal density of the basis changes
SNF_SIZES = (24, 28, 32, 36, 40, 44)
SNF_CHECK_PRIMES = (2, 3, 5, 7, 11, 13)
PLANTED_OPS = 3               # elementary operations per row and column
UCT_SMALL_PRIMES = (2, 3, 5, 7)
UCT_TORSION = (1, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 14)
UCT_DEGREES = range(0, 6)
UCT_GENERATORS = (8, 21)      # generators per degree, inclusive
UCT_LARGE = 10 ** 11           # large moduli are the next prime above this
UCT_LARGE_EVERY = 4            # one large-modulus request per four
UCT_DENSITY = 0.08            # off-diagonal density of the basis changes


# --------------------------------------------------------------- integers

def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (bases up to 41)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def bareiss_det(rows: List[List[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def rational_rank(rows: List[List[int]]) -> int:
    """Rank over Q by exact fraction-free elimination."""
    m = [list(r) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f, g = m[i][c], m[r][c]
                m[i] = [a * g - f * b for a, b in zip(m[i], m[r])]
                d = 0
                for x in m[i]:
                    d = gcd(d, x)
                if d > 1:
                    m[i] = [x // d for x in m[i]]
        r += 1
        if r == len(m):
            break
    return r


def rank_mod(rows: List[List[int]], p: int) -> int:
    """Rank over Z/p by Gaussian elimination (p prime)."""
    m = [[x % p for x in r] for r in rows]
    cols = len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def _unitri_inverse(M, lower):
    """Exact inverse of a unitriangular matrix by substitution."""
    n = len(M)
    cols = []
    order = range(n) if lower else range(n - 1, -1, -1)
    for c in range(n):
        x = [0] * n
        for i in order:
            x[i] = int(i == c) - sum(M[i][j] * x[j] for j in range(n)
                                     if j != i and M[i][j])
        cols.append(x)
    return [list(r) for r in zip(*cols)]


def random_unimodular(rng: random.Random, n: int, density: float):
    """(P, P^-1) for a random integer P = S.L.R with determinant +-1: S a
    signed permutation, L and R sparse unitriangular (lower and upper) with
    off-diagonal entries in [-2, 2]."""
    def unitri(lower):
        M = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if (j < i if lower else j > i) and rng.random() < density:
                    M[i][j] = rng.choice((-2, -1, 1, 2))
        return M

    L, R = unitri(True), unitri(False)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    S = [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    S_inv = [list(r) for r in zip(*S)]
    return (matmul(S, matmul(L, R)),
            matmul(_unitri_inverse(R, False),
                   matmul(_unitri_inverse(L, True), S_inv)))


def matmul(A: List[List[int]], B: List[List[int]]) -> List[List[int]]:
    if not A or not B:
        return [[0] * (len(B[0]) if B else 0) for _ in A]
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col) if a) for col in Bt]
            for row in A]


def conjugate(M, src, dst):
    """dst_P . M . src_P^-1 for bases changed by the pairs (P, P^-1)."""
    return matmul(matmul(dst[0], M), src[1])


# --------------------------------------------------------- ss-zigzag

class ZigzagComplex:
    """A direct sum of staircase zigzags and lone cells on the 4x4 grid.

    zigzags: (axis, p, q, r) in the coordinates of `axis` ("col": (p, q) is
    the cell (r, s); "row": (p, q) is the cell (s, r)).  lones: cells (r, s).
    """

    def __init__(self, zigzags, lones):
        self.zigzags = list(zigzags)
        self.lones = list(lones)

    @staticmethod
    def cell(axis, p, q):
        return (p, q) if axis == "col" else (q, p)

    def generators(self):
        """Yield (cell, name) for every basis vector before conjugation."""
        for k, (axis, p, q, r) in enumerate(self.zigzags):
            for i in range(r):
                yield self.cell(axis, p + i, q - i), ("x", k, i)
            for j in range(1, r + 1):
                yield self.cell(axis, p + j, q - j + 1), ("y", k, j)
        for k, c in enumerate(self.lones):
            yield c, ("lone", k)

    def arrows(self):
        """Yield (source name, target name) of every nonzero map entry."""
        for k, (axis, p, q, r) in enumerate(self.zigzags):
            for i in range(r):
                yield ("x", k, i), ("y", k, i + 1)  # raises the filtration level
                if i >= 1:
                    yield ("x", k, i), ("y", k, i)  # stays in the column/row

    # -- expected answers ------------------------------------------------

    def page_dims(self, axis: str, page: int) -> Dict[Tuple[int, int], int]:
        dims: Dict[Tuple[int, int], int] = {}
        for (a, p, q, r) in self.zigzags:
            if a == axis and r >= page:
                for pq in ((p, q), (p + r, q - r + 1)):
                    dims[pq] = dims.get(pq, 0) + 1
        for c in self.lones:
            pq = self.cell(axis, *c)  # the cell map is its own inverse
            dims[pq] = dims.get(pq, 0) + 1
        return dims

    def d_ranks(self, axis: str) -> Dict[Tuple[int, int, int], int]:
        out: Dict[Tuple[int, int, int], int] = {}
        for (a, p, q, r) in self.zigzags:
            if a == axis:
                out[(r, p, q)] = out.get((r, p, q), 0) + 1
        return out

    def stable_page(self, axis: str) -> int:
        return 1 + max((z[3] for z in self.zigzags if z[0] == axis), default=0)

    def expected_ss(self, axis: str) -> str:
        """Exact stdout of `exhom ss --axis <axis> --pages`."""
        last_page = 2 * GRID + 2  # the engine computes pages 1..top+2
        lines = []
        for page in range(1, last_page + 1):
            dims = self.page_dims(axis, page)
            lines.append(f"page {page}")
            lines += [f"{p} {q} {dims.get((p, q), 0)}"
                      for p in range(GRID + 1) for q in range(GRID + 1)]
        limit = self.page_dims(axis, last_page)
        lines.append(f"limit (stable at page {self.stable_page(axis)})")
        lines += [f"{p} {q} {limit.get((p, q), 0)}"
                  for p in range(GRID + 1) for q in range(GRID + 1)]
        return "\n".join(lines) + "\n"

    def filtration_dims(self, n: int):
        """dims of F^p H^n (columns) and G^p H^n (rows), p = 0..n+1.

        The zigzags are acyclic summands, so H^n is spanned by the lone
        cells of total degree n, each in a single bidegree.
        """
        cells = [c for c in self.lones if c[0] + c[1] == n]
        f = [sum(1 for r, _ in cells if r >= p) for p in range(n + 2)]
        g = [sum(1 for _, s in cells if s >= p) for p in range(n + 2)]
        return f, g

    def expected_oppose(self, n: int) -> str:
        f, g = self.filtration_dims(n)
        h = f[0]
        # F^p is spanned by lone cells with r >= p and G^{n+1-p} by those
        # with r <= p-1: disjoint bidegrees, so they meet in zero.
        opposite = all(f[p] + g[n + 1 - p] == h for p in range(n + 2))
        criterion = opposite and all(
            f[p] + f[n + 1 - p] == h and g[p] + g[n + 1 - p] == h
            for p in range(n + 2))
        return (f"col dims {' '.join(map(str, f))}\n"
                f"row dims {' '.join(map(str, g))}\n"
                f"opposite {str(opposite).lower()}\n"
                f"dimension_criterion {str(criterion).lower()}\n")

    # -- the document ----------------------------------------------------

    def document(self, rng: random.Random) -> dict:
        index: Dict[tuple, Tuple[Tuple[int, int], int]] = {}
        dims: Dict[Tuple[int, int], int] = {}
        for c, name in self.generators():
            index[name] = (c, dims.get(c, 0))
            dims[c] = dims.get(c, 0) + 1
        raw: Dict[Tuple[str, Tuple[int, int]], List[List[int]]] = {}
        for src, dst in self.arrows():
            (sc, si), (dc, di) = index[src], index[dst]
            field = "horiz" if dc == (sc[0] + 1, sc[1]) else "vert"
            M = raw.setdefault((field, sc), [[0] * dims[sc]
                                             for _ in range(dims[dc])])
            M[di][si] = rng.choice((-1, 1))
        P = {c: random_unimodular(rng, d, ZIGZAG_DENSITY)
             for c, d in dims.items()}
        doc = {"max_r": GRID, "max_c": GRID,
               "dims": {f"{r},{s}": d for (r, s), d in sorted(dims.items())},
               "horiz": {}, "vert": {}}
        for (field, (r, s)), M in sorted(raw.items()):
            dst = (r + 1, s) if field == "horiz" else (r, s + 1)
            doc[field][f"{r},{s}"] = conjugate(M, P[(r, s)], P[dst])
        return doc


def random_zigzag_complex(rng: random.Random, target: int) -> ZigzagComplex:
    """Zigzags of random length 1..3 and orientation plus lone cells, until
    the total dimension reaches `target`."""
    zigzags, lones = [], []
    size = 0
    while size < target:
        if target - size >= 2 and rng.random() < 0.8:
            r = rng.randint(1, min(3, (target - size) // 2))
            axis = rng.choice(("col", "row"))
            p = rng.randint(0, GRID - r)
            q = rng.randint(r - 1, GRID)
            zigzags.append((axis, p, q, r))
            size += 2 * r
        else:
            lones.append((rng.randint(0, GRID), rng.randint(0, GRID)))
            size += 1
    return ZigzagComplex(zigzags, lones)


def oppose_degree(rng: random.Random, Z: ZigzagComplex) -> int:
    degrees = sorted({r + s for r, s in Z.lones}) or list(range(2 * GRID + 1))
    return rng.choice(degrees)


# --------------------------------------------------------- snf-dense

def uniform_matrix(rng: random.Random, n: int) -> List[List[int]]:
    return [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]


def uniform_invariants(A: List[List[int]]) -> dict:
    """What any Smith form of A must satisfy, computed without exhom."""
    n = len(A)
    det = abs(bareiss_det(A))
    # a prime not dividing a nonzero det leaves A invertible mod p
    return {"rows": n, "cols": n, "abs_det": det,
            "rank": n if det else rational_rank(A),
            "rank_mod": {str(p): n if det % p else rank_mod(A, p)
                         for p in SNF_CHECK_PRIMES}}


def torsion_chain(rng: random.Random, k: int) -> List[int]:
    """A divisibility chain of k invariant factors ending in 1..3 zeros."""
    zeros = rng.randint(1, 3)
    t, cur = [], 1
    for _ in range(k - zeros):
        if rng.random() < 0.12:
            cur *= rng.choice((2, 3, 5))
        t.append(cur)
    return t + [0] * zeros


def planted_matrix(rng: random.Random, rows: int, cols: int):
    """U.D.V for D = diag(t), with U and V products of random elementary
    operations (row_i += c.row_j, column_j += c.column_i) and a shuffle,
    so A has invariant factors t exactly."""
    t = torsion_chain(rng, min(rows, cols))
    A = [[t[i] if i == j and i < len(t) else 0 for j in range(cols)]
         for i in range(rows)]
    for _ in range(PLANTED_OPS * rows):
        i, j = rng.sample(range(rows), 2)
        c = rng.choice((-2, -1, 1, 2))
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
    for _ in range(PLANTED_OPS * cols):
        i, j = rng.sample(range(cols), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in A:
            row[j] += c * row[i]
    rng.shuffle(A)
    perm = list(range(cols))
    rng.shuffle(perm)
    return [[row[k] for k in perm] for row in A], t


def check_snf_line(line: str, inv: dict) -> str | None:
    """None if `line` is a valid Smith diagonal for a matrix with the
    invariants `inv`, else the reason it is not."""
    try:
        d = [int(x) for x in line.split()]
    except ValueError:
        return "non-integer output"
    k = min(inv["rows"], inv["cols"])
    if len(d) != k:
        return f"{len(d)} factors, expected {k}"
    if any(x < 0 for x in d):
        return "negative factor"
    for a, b in zip(d, d[1:]):
        if (a == 0 and b != 0) or (a and b % a):
            return f"{a} does not divide {b}"
    nonzero = [x for x in d if x]
    if len(nonzero) != inv["rank"]:
        return f"{len(nonzero)} nonzero factors, rank is {inv['rank']}"
    prod = 1
    for x in nonzero:
        prod *= x
    if inv["abs_det"] and prod != inv["abs_det"]:
        return "product of factors differs from |det|"
    for p, rk in inv["rank_mod"].items():
        if sum(1 for x in d if x % int(p) == 0) != k - rk:
            return f"factor count divisible by {p} differs from k - rank mod {p}"
    return None


# --------------------------------------------------------- chain-uct

class ChainComplex:
    """Integer chain complex d_n: C_n -> C_{n-1} from arrows and lone gens.

    gens[n] is the rank of C_n; arrows[n] lists the multiplicities m of the
    arrows a -> m.b from degree n to degree n-1.  Generators in no arrow are
    lone.
    """

    def __init__(self, gens: Dict[int, int], arrows: Dict[int, List[int]]):
        self.gens = gens
        self.arrows = arrows

    def lone(self, n):
        return (self.gens[n] - len(self.arrows.get(n, ()))
                - len(self.arrows.get(n + 1, ())))

    def uct_dim(self, n: int, p: int) -> int:
        """dim H_n(C (x) Z/p) for prime p, by construction."""
        hit = sum(1 for m in self.arrows.get(n, ()) if m % p == 0)
        hit += sum(1 for m in self.arrows.get(n + 1, ()) if m % p == 0)
        return self.lone(n) + hit

    def expected_uct(self, p: int) -> str:
        lines = ["uct: PASS"]
        for n in sorted(self.gens):
            v = self.uct_dim(n, p)
            lines.append(f"  degree {n}: {v} vs {v}  ok")
        return "\n".join(lines) + "\n"

    def document(self, rng: random.Random) -> dict:
        # generator order per degree: sources of arrows out, targets of
        # arrows in, lone generators; shuffled afterwards by conjugation
        diffs = {}
        P = {n: random_unimodular(rng, g, UCT_DENSITY)
             for n, g in self.gens.items()}
        for n, ms in sorted(self.arrows.items()):
            M = [[0] * self.gens[n] for _ in range(self.gens[n - 1])]
            base = len(self.arrows.get(n - 1, ()))  # n-1 lists its own sources first
            for k, m in enumerate(ms):
                M[base + k][k] = m
            diffs[str(n)] = conjugate(M, P[n], P[n - 1])
        return {"min_deg": min(self.gens),
                "dims": {str(n): g for n, g in sorted(self.gens.items())},
                "differentials": diffs}


def random_chain_complex(rng: random.Random) -> ChainComplex:
    lo, hi = UCT_GENERATORS
    gens = {n: rng.randint(lo, hi) for n in UCT_DEGREES}
    arrows: Dict[int, List[int]] = {}
    used_as_source = {n: 0 for n in UCT_DEGREES}
    for n in list(UCT_DEGREES)[1:]:
        free_target = gens[n - 1] - used_as_source[n - 1]
        free_source = gens[n]
        count = rng.randint(0, min(free_target, free_source) * 3 // 4)
        arrows[n] = [rng.choice(UCT_TORSION) for _ in range(count)]
        used_as_source[n] = count
    return ChainComplex(gens, arrows)


# --------------------------------------------------------- manifests

def _write(out: str, name: str, doc) -> str:
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return path


def block_size(workload: str) -> int:
    """Groups per block of the size schedule: every block of a run holds
    the same multiset of sizes (and, for chain-uct, of modulus kinds)."""
    return {"ss-zigzag": len(ZIGZAG_DIMS), "snf-dense": 2 * len(SNF_SIZES),
            "chain-uct": UCT_LARGE_EVERY}[workload]


def _schedule(rng: random.Random, groups: int, values) -> List:
    """`groups` values cycling through every entry of `values` in shuffled
    blocks, so any prefix of the run covers every size nearly evenly."""
    out: List = []
    while len(out) < groups:
        block = list(values)
        rng.shuffle(block)
        out += block
    return out[:groups]


def build(workload: str, seed: int, groups: int, out: str) -> dict:
    """Write `groups` documents (plus one warm-up document) and return the
    manifest: an ordered request list with expected answers."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out, exist_ok=True)
    requests = []
    digest = hashlib.sha256()

    def add(group, kind, argv, doc_path, **expect):
        with open(doc_path, "rb") as fh:
            digest.update(fh.read())
        # the output directory is not part of the input
        digest.update(json.dumps([os.path.basename(a) if a == doc_path else a
                                  for a in argv]).encode())
        requests.append({"group": group, "kind": kind, "argv": argv,
                         **expect})

    if workload == "ss-zigzag":
        sizes = _schedule(rng, groups + 1, ZIGZAG_DIMS)
        for g, target in enumerate(sizes):
            Z = random_zigzag_complex(rng, target)
            path = _write(out, f"k{g}.json", Z.document(rng))
            n = oppose_degree(rng, Z)
            for axis in ("col", "row"):
                add(g, f"ss-{axis}", ["ss", "--input", path, "--axis", axis,
                                      "--pages"], path,
                    stdout=Z.expected_ss(axis))
            add(g, "oppose", ["oppose", "--input", path, "--n", str(n)], path,
                stdout=Z.expected_oppose(n))
    elif workload == "snf-dense":
        kinds = _schedule(rng, groups + 1,
                          [(k, n) for k in ("uniform", "planted")
                           for n in SNF_SIZES])
        for g, (kind, n) in enumerate(kinds):
            if kind == "uniform":
                A = uniform_matrix(rng, n)
                path = _write(out, f"m{g}.json", A)
                add(g, "snf-uniform", ["snf", "--input", path], path,
                    snf=uniform_invariants(A))
            else:
                rows = n + rng.choice((-4, 0, 0, 4))
                A, t = planted_matrix(rng, rows, n)
                path = _write(out, f"m{g}.json", {"matrix": A})
                add(g, "snf-planted", ["snf", "--input", path], path,
                    stdout=" ".join(map(str, t)) + "\n")
    else:
        mods = _schedule(rng, groups + 1, UCT_SMALL_PRIMES)
        for g in range(groups + 1):
            C = random_chain_complex(rng)
            path = _write(out, f"c{g}.json", C.document(rng))
            if g % UCT_LARGE_EVERY == UCT_LARGE_EVERY - 1:
                p, kind = next_prime(UCT_LARGE + rng.randrange(10 ** 9)), \
                    "uct-large"
            else:
                p, kind = mods[g], "uct-small"
            add(g, kind, ["uct", "--input", path, "--mod", str(p)], path,
                stdout=C.expected_uct(p))
    warmup = [r for r in requests if r["group"] == groups]
    timed = [r for r in requests if r["group"] < groups]
    return {"workload": workload, "seed": seed, "groups": groups,
            "input_sha256": digest.hexdigest(),
            "warmup": warmup, "requests": timed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--groups", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    manifest = build(args.workload, args.seed, args.groups, args.out)
    _write(args.out, "manifest.json", manifest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
