"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Lines are written through the capture layer so they are visible in any
pytest run; each test also asserts, so a FAIL line comes with a red test.
"""

import itertools
import random
import sys
import time

from conftest import (
    SteinbergLabel,
    degenerates_at,
    deligne_opposite,
    delta,
    determinant,
    e2_dim,
    ext_dim,
    rank,
    random_dense_cochain,
    random_double_complex,
    random_int_chain,
    random_int_matrix,
    to_sparse,
)
from exhom.complexes import cohomology_dims, kunneth_check, uct_check
from exhom.qlinalg import RatMatrix
from exhom.spectral import (
    COLUMN,
    ROW,
    FiltrationChain,
    dimension_criterion,
    double_complex,
    opposite_check,
    spectral_pages,
)
from exhom.steinberg import (
    InducedSpectrum,
    betti_profile,
    covering_filtration_dims,
    paper_table_diff,
)
from exhom.zlinalg import smith_normal_form


def report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num} ({name}): {status}"
    print(line, file=sys.__stdout__, flush=True)
    assert not failures, f"{line}: {failures[:3]}"


def _generate_instances(count, seed=101):
    rng = random.Random(seed)
    return [random_double_complex(rng) for _ in range(count)]


_INSTANCES = None


def instances():
    global _INSTANCES
    if _INSTANCES is None:
        _INSTANCES = [(K, {axis: spectral_pages(K, axis)
                           for axis in (COLUMN, ROW)})
                      for K in _generate_instances(100)]
    return _INSTANCES


def test_criterion_1_convergence_oracle():
    failures = []
    start = time.monotonic()
    for idx, (K, pages) in enumerate(instances()):
        H = cohomology_dims(K.total)
        for axis, P in pages.items():
            for n in range(K.max_r + K.max_c + 1):
                got = sum(d for (p, q), d in P.limit.items() if p + q == n)
                want = H.get(n, 0)
                if got != want:
                    failures.append((idx, axis, n, got, want))
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    report(1, "engine convergence oracle, 100 instances, both axes", failures)


def test_criterion_2_page_bookkeeping():
    failures = []
    for idx, (K, pages) in enumerate(instances()):
        for axis, P in pages.items():
            rs = sorted(P.pages)
            for r in rs[:-1]:
                for (p, q) in set(P.pages[r]) | set(P.pages[r + 1]):
                    want = (P.dim(r, p, q) - P.d_ranks.get((r, p, q), 0)
                            - P.d_ranks.get((r, p - r, q + r - 1), 0))
                    if P.dim(r + 1, p, q) != want:
                        failures.append((idx, axis, r, p, q))
    report(2, "page bookkeeping at every page turn", failures)


def _vertical_only_complex(rng):
    C = random_dense_cochain(rng, max_deg=3, max_pieces=3)
    cols = rng.randint(1, 3)
    dims = {(r, s): C.dim(s) for r in range(cols) for s in C.degrees()}
    vert = {(r, s): C.differentials[s] for r in range(cols)
            for s in list(C.differentials)}
    return double_complex(cols - 1, C.max_deg, dims, {}, vert)


def _random_flag(rng, n, dims):
    """The rows of a random invertible matrix, row k of level
    #{p >= 1 : k < dims[p]}."""
    b = dims[0]
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(b)] for _ in range(b)]
        if rank(RatMatrix.from_rows(rows, b)) == b:
            break
    levels = tuple(sum(1 for d in dims[1:] if d > k) for k in range(b))
    return FiltrationChain(n, b, levels, tuple(map(to_sparse, rows)))


def _symmetric_profile(rng):
    """Random weakly decreasing dims with dims[i] + dims[n+1-i] = b."""
    while True:
        n = rng.randint(1, 3)
        b = rng.randint(1, 5)
        dims = [b] + sorted((rng.randint(0, b) for _ in range((n + 1) // 2)),
                            reverse=True)
        while len(dims) < n + 2:
            dims.append(b - dims[n + 1 - len(dims)])
        dims[-1] = 0
        if any(a < c for a, c in zip(dims, dims[1:])):
            continue
        if any(dims[i] + dims[n + 1 - i] != b for i in range(n + 2)):
            continue
        return n, dims


def test_criterion_3_lemma_suite():
    failures = []
    rng = random.Random(103)
    # (a) vanishing horizontal differentials: row filtration degenerates at 2
    for i in range(20):
        K = _vertical_only_complex(rng)
        if not degenerates_at(spectral_pages(K, ROW), 2):
            failures.append(("a", i))
    # (b) dimension hypotheses imply oppositeness on >= 50 random pairs,
    # and Deligne's criterion gives `opposite_check` on every pair
    found = 0
    while found < 50:
        n, dims = _symmetric_profile(rng)
        F = _random_flag(rng, n, dims)
        G = _random_flag(rng, n, dims)
        if opposite_check(F, G) != deligne_opposite(F, G):
            failures.append(("b", "Deligne's criterion disagrees", dims))
        if dimension_criterion(F, G):
            found += 1
            if not opposite_check(F, G):
                failures.append(("b", found, dims))
    # (c) engineered violations are rejected by the criterion
    F = FiltrationChain(1, 2, (1, 0))  # F^1 = <e_0>
    G_same = F  # violates the sum condition: F^1 + G^1 is not everything
    G_skew = FiltrationChain(1, 2, (0, 0))  # violates dim symmetry
    if dimension_criterion(F, G_same):
        failures.append(("c", "sum-condition violation accepted"))
    if dimension_criterion(F, G_skew):
        failures.append(("c", "dimension-identity violation accepted"))
    report(3, "degeneration and opposite-filtration suite", failures)


def test_criterion_4_kunneth():
    failures = []
    rng = random.Random(104)
    for i in range(100):
        A = random_dense_cochain(rng, max_deg=3, max_pieces=3)
        B = random_dense_cochain(rng, max_deg=3, max_pieces=3)
        if not kunneth_check(A, B).passed:
            failures.append(i)
    report(4, "Kunneth check on 100 random rational complexes", failures)


def test_criterion_5_uct():
    failures = []
    rng = random.Random(105)
    for i in range(50):
        C = random_int_chain(rng, max_deg=3, max_pieces=4, max_mult=6)
        for m in (2, 3, 5):
            if not uct_check(C, m).passed:
                failures.append((i, m))
    report(5, "universal-coefficient check, 50 complexes, m in {2,3,5}",
           failures)


def test_criterion_6_ext_single_degree():
    failures = []
    cases = 0
    for d in range(1, 4):
        for dp in range(1, 4):
            subs_d = [frozenset(c) for k in range(d + 1)
                      for c in itertools.combinations(range(1, d + 1), k)]
            subs_dp = [frozenset(c) for k in range(dp + 1)
                       for c in itertools.combinations(range(1, dp + 1), k)]
            for s1, s2 in itertools.product(subs_d, repeat=2):
                I1, I2 = SteinbergLabel(d, s1), SteinbergLabel(d, s2)
                for t1, t2 in itertools.product(subs_dp, repeat=2):
                    J1, J2 = SteinbergLabel(dp, t1), SteinbergLabel(dp, t2)
                    cases += 1
                    hits = [i for i in range(2 * (d + dp) + 1)
                            if ext_dim(I1, J1, I2, J2, i)]
                    if hits != [delta(I1, I2) + delta(J1, J2)]:
                        failures.append((d, dp, s1, s2, t1, t2))
    if cases < 4096:
        failures.append(("case count", cases))
    report(6, f"Ext concentrated in one degree ({cases} label tuples)",
           failures)


def test_criterion_7_e2_betti_structure():
    failures = []
    start = time.monotonic()
    for d in range(1, 6):
        for dp in range(1, 6):
            top = d + dp
            for m in itertools.product(range(4), repeat=3):
                sp = InducedSpectrum(*m)
                flipped = InducedSpectrum(sp.m01, sp.m10, sp.m11)
                for r in range(top + 1):
                    for s in range(top + 1):
                        v = e2_dim(d, dp, sp, r, s)
                        if v != e2_dim(dp, d, flipped, r, s):
                            failures.append(("transpose", d, dp, m, r, s))
                b = betti_profile(d, dp, sp).b
                if b[0] != 1 or b[-1] != 1:
                    failures.append(("ends", d, dp, m))
                for n in range(2 * top + 1):
                    if b[n] != b[2 * top - n]:
                        failures.append(("poincare", d, dp, m, n))
                for n in range(2 * top + 1):
                    dims = covering_filtration_dims(d, dp, sp, n)
                    for i in range(n + 2):
                        if dims[i] + dims[n + 1 - i] != b[n]:
                            failures.append(("filtration", d, dp, m, n, i))
                chi = sum((-1) ** n * bn for n, bn in enumerate(b))
                want = (d + 1) * (dp + 1) * (1 + (-1) ** d * sp.m10
                                             + (-1) ** dp * sp.m01
                                             + (-1) ** (d + dp) * sp.m11)
                if chi != want:
                    failures.append(("euler", d, dp, m, chi, want))
    elapsed = time.monotonic() - start
    if elapsed >= 10:
        failures.append(("runtime", elapsed))
    report(7, "E2/Betti structure, exhaustive d,d' <= 5, multiplicities <= 3",
           failures)


def test_criterion_8_paper_comparison():
    failures = []
    # with m10 = m01 = 0 both tables put a lone 1 at the corners and every
    # disagreement sits on the documented diagonal cells
    for m in [(0, 0, 0), (0, 0, 1), (0, 0, 3)]:
        sp = InducedSpectrum(*m)
        rep = paper_table_diff(2, 2, sp)
        if not (rep.computed.at(0, 0) == 1 == rep.stated.get((0, 0))):
            failures.append((m, "corner (0,0)"))
        if not (rep.computed.at(4, 4) == 1 == rep.stated.get((4, 4))):
            failures.append((m, "corner (4,4)"))
        if not rep.cell_diffs:
            failures.append((m, "empty diff"))
        if m == (0, 0, 0) and sorted(rep.cell_diffs) != [(1, 1), (2, 2),
                                                         (3, 3)]:
            failures.append((m, "diff not at the documented diagonal cells"))
        if rep.render() != paper_table_diff(2, 2, sp).render():
            failures.append((m, "nondeterministic report"))
    report(8, "paper comparison at d = d' = 2", failures)


def test_criterion_9_snf():
    failures = []
    rng = random.Random(109)
    for i in range(100):
        A = random_int_matrix(rng, max_size=6, bound=20)
        snf = smith_normal_form(A)
        if snf.U @ A @ snf.V != snf.D:
            failures.append((i, "decomposition"))
        if abs(determinant(snf.U)) != 1 or abs(determinant(snf.V)) != 1:
            failures.append((i, "unimodularity"))
        diag = snf.diagonal
        nz = [x for x in diag if x]
        if list(diag[:len(nz)]) != nz or any(x < 0 for x in diag):
            failures.append((i, "diagonal layout"))
        if any(b % a for a, b in zip(nz, nz[1:])):
            failures.append((i, "divisibility chain"))
    report(9, "Smith normal form on 100 random matrices", failures)
