import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import inf

import pytest

from conftest import (
    RP2,
    TORUS,
    Subspace,
    apply,
    barycentric,
    building_chain,
    conjugate_cochain,
    descent_weight,
    flag_count,
    differential,
    fraction_rows,
    hom_dual,
    kernel_basis,
    num_rows,
    random_cochain,
    random_dense_cochain,
    random_int_chain,
    rank,
    reference_homology_int,
    simplicial_chain,
    subspace_sum,
    to_dense,
    transpose,
)
from exhom import complexes, zlinalg
from exhom.cli import main
from exhom.complexes import (
    ComplexError,
    _pairing,
    cochain_complex,
    cohomology_dims,
    homology_int,
    int_chain_complex,
    kunneth_check,
    tensor_product,
    uct_check,
    validate_complex,
)
from exhom.qlinalg import RatMatrix
from exhom.zlinalg import FinAbGroup, is_prime


def two_term(matrix_rows):
    M = RatMatrix.from_rows(matrix_rows)
    return cochain_complex(0, {0: M.cols, 1: M.rows}, {0: M})


def test_validate_zero_differentials():
    C = cochain_complex(0, {0: 1, 1: 2, 2: 1}, {})
    assert validate_complex(C)


def test_validate_rejects_id_id():
    C = cochain_complex(0, {0: 1, 1: 1, 2: 1},
                        {0: RatMatrix.identity(1), 1: RatMatrix.identity(1)})
    assert not validate_complex(C)


def test_validate_accepts_exact_pair():
    C = cochain_complex(0, {0: 1, 1: 2, 2: 1},
                        {0: RatMatrix.from_rows([[1], [1]]),
                         1: RatMatrix.from_rows([[1, -1]])})
    assert validate_complex(C)


def test_shape_mismatch_raises():
    with pytest.raises(ComplexError):
        cochain_complex(0, {0: 2, 1: 1}, {0: RatMatrix.identity(2)})


def test_chain_complex_refuses_a_fractional_differential():
    """A chain complex's column store is over den 1: its numerators are the
    integer entries `zlinalg` reads."""
    with pytest.raises(ComplexError, match="degree 1 is not integral"):
        int_chain_complex(0, {0: 1, 1: 1}, {1: RatMatrix.from_rows([["1/2"]])})
    C = int_chain_complex(0, {0: 1, 1: 1}, {1: RatMatrix.from_rows([["4/2"]])})
    assert homology_int(C, 0) == FinAbGroup(0, (2,))


def test_cohomology_zero_differentials():
    C = cochain_complex(0, {0: 2, 1: 3}, {})
    assert cohomology_dims(C) == {0: 2, 1: 3}


def test_cohomology_acyclic():
    C = cochain_complex(0, {0: 1, 1: 1}, {0: RatMatrix.identity(1)})
    assert cohomology_dims(C) == {0: 0, 1: 0}


def test_cohomology_rank_one_map():
    C = two_term([[1, 1]])
    assert cohomology_dims(C) == {0: 1, 1: 0}


def test_cohomology_representatives_live_in_kernel():
    rng = random.Random(3)
    for _ in range(10):
        C = random_dense_cochain(rng)
        for n, dim in cohomology_dims(C).items():
            reps = [to_dense(g.chain, C.dim(n)) for g in _pairing(C, {}, n)
                    if g.n == n and g.life == inf]
            assert Subspace.span(C.dim(n), reps).dim == len(reps) == dim
            assert all(type(x) is int for v in reps for x in v)
            d = differential(C, n)
            for v in reps:
                assert all(x == 0 for x in apply(d, v))


def test_cohomology_representatives_complement_the_image():
    rng = random.Random(4)
    for _ in range(20):
        C = random_dense_cochain(rng)
        for n, dim in cohomology_dims(C).items():
            reps = [to_dense(g.chain, C.dim(n)) for g in _pairing(C, {}, n)
                    if g.n == n and g.life == inf]
            if not C.dim(n):
                continue
            reps = Subspace.span(C.dim(n), reps)
            ker = kernel_basis(differential(C, n))
            image = Subspace.span(
                C.dim(n), fraction_rows(transpose(differential(C, n - 1))))
            assert ker.contains_space(reps) and ker.contains_space(image)
            both = subspace_sum(reps, image)
            assert both.dim == reps.dim + image.dim == ker.dim
            assert dim == ker.dim - image.dim


def test_tensor_unit():
    unit = cochain_complex(0, {0: 1}, {})
    C = two_term([[1, 1]])
    T = tensor_product(unit, C)
    assert dict(T.dims) == dict(C.dims)
    assert cohomology_dims(T) == cohomology_dims(C)


def test_tensor_acyclic_square():
    I = cochain_complex(0, {0: 1, 1: 1}, {0: RatMatrix.identity(1)})
    T = tensor_product(I, I)
    assert validate_complex(T), "Leibniz sign is required for d o d = 0"
    assert all(v == 0 for v in cohomology_dims(T).values())


def test_tensor_dims_multiply():
    rng = random.Random(4)
    for _ in range(10):
        C = random_dense_cochain(rng)
        D = random_dense_cochain(rng)
        T = tensor_product(C, D)
        for n in T.degrees():
            assert T.dim(n) == sum(C.dim(i) * D.dim(n - i)
                                   for i in C.degrees())


def test_tensor_associative_on_cohomology():
    rng = random.Random(5)
    for _ in range(5):
        C = random_dense_cochain(rng, max_deg=2, max_pieces=2)
        D = random_dense_cochain(rng, max_deg=2, max_pieces=2)
        E = random_dense_cochain(rng, max_deg=2, max_pieces=2)
        left = tensor_product(tensor_product(C, D), E)
        right = tensor_product(C, tensor_product(D, E))
        assert dict(left.dims) == dict(right.dims)
        assert cohomology_dims(left) == cohomology_dims(right)


def test_kunneth_zero_differentials():
    C = cochain_complex(0, {0: 2, 1: 1}, {})
    D = cochain_complex(0, {0: 1, 1: 3}, {})
    report = kunneth_check(C, D)
    assert report.passed
    assert dict((n, l) for n, l, _ in report.rows) == {0: 2, 1: 7, 2: 3}


def test_kunneth_example():
    C = two_term([[1, 1]])
    report = kunneth_check(C, C)
    assert report.passed
    assert [(n, l, r) for n, l, r in report.rows] == [(0, 1, 1), (1, 0, 0),
                                                      (2, 0, 0)]


def test_homology_int_mult_by_two():
    C = int_chain_complex(0, {0: 1, 1: 1}, {1: RatMatrix.from_rows([[2]])})
    assert homology_int(C, 0) == FinAbGroup(0, (2,))
    assert homology_int(C, 1) == FinAbGroup(0, ())


def test_homology_int_zero_differentials():
    C = int_chain_complex(0, {0: 2, 1: 3}, {})
    assert homology_int(C, 0) == FinAbGroup(2, ())
    assert homology_int(C, 1) == FinAbGroup(3, ())


def test_absent_maps_build_no_zero_integer_matrix(monkeypatch):
    """homology_int and uct_check read an absent d_n as zero: no invariant
    factors and mod-p rank 0, with no zero matrix built for it."""
    post = RatMatrix.__post_init__

    def refuse(self):
        post(self)
        if self.rows and self.cols and not any(self.columns):
            raise AssertionError("zero matrix built")

    monkeypatch.setattr(RatMatrix, "__post_init__", refuse)
    # d_1 (3 -> 2) and d_3 (2 -> 1) are absent; d_2 is stored
    C = int_chain_complex(0, {0: 2, 1: 3, 2: 1, 3: 2},
                          {2: RatMatrix.from_rows([[2], [0], [6]], 1)})
    assert [homology_int(C, n) for n in C.degrees()] == [
        FinAbGroup(2, ()), FinAbGroup(2, (2,)), FinAbGroup(0, ()),
        FinAbGroup(2, ())]
    report = uct_check(C, 2)
    assert report.passed
    assert [(n, l) for n, l, _ in report.rows] == [(0, 2), (1, 3), (2, 1),
                                                   (3, 2)]
    assert "not prime" in uct_check(C, 4).note


def test_uct_hands_each_column_store_to_zlinalg(monkeypatch):
    """uct_check and homology_int read no dense rows (`smith_normal_form`,
    the library's one dense reader of a `RatMatrix`), and hand each
    differential they use to each elimination once: the Smith split
    (`_split_pivots`) and, for uct_check at a prime, the rank mod p
    (`_rank_mod_p`).  Each call gets a fresh copy of the complex, which has
    factored nothing yet."""
    rng = random.Random(45)
    chains = [random_int_chain(rng, max_deg=4, max_pieces=8)
              for _ in range(40)]

    def refuse(*args):
        raise AssertionError("dense rows of a RatMatrix read")

    reads = Counter()

    def counted(name, fn):
        def wrapper(D, *args):
            reads[name, id(D)] += 1
            return fn(D, *args)
        return wrapper

    monkeypatch.setattr(zlinalg, "smith_normal_form", refuse)
    monkeypatch.setattr(zlinalg, "_split_pivots",
                        counted("split", zlinalg._split_pivots))
    monkeypatch.setattr(complexes, "_rank_mod_p",
                        counted("rank", complexes._rank_mod_p))
    for C in chains:
        d = C.differentials

        def fresh():
            return int_chain_complex(C.min_deg, C.dims, d)
        for p in (3, 100000000003):
            reads.clear()
            assert uct_check(fresh(), p).passed
            assert reads == Counter((name, id(D)) for D in d.values()
                                    for name in ("split", "rank"))
        for n in C.degrees():
            reads.clear()
            homology_int(fresh(), n)
            assert reads == Counter(("split", id(d[k])) for k in (n, n + 1)
                                    if k in d)


def test_each_differential_is_factored_once_per_complex(monkeypatch):
    """homology_int over every degree, then uct_check at a prime and at a
    composite modulus, compute the invariant factors of each stored
    differential once: a complex keeps them for the degrees asked."""
    rng = random.Random(46)
    calls, real = Counter(), complexes._chain_factors

    def counted(D):
        calls[id(D)] += 1
        return real(D)

    monkeypatch.setattr(complexes, "_chain_factors", counted)
    for _ in range(30):
        C = random_int_chain(rng, max_deg=4, max_pieces=8)
        calls.clear()
        groups = [homology_int(C, n) for n in C.degrees()]
        for m in (3, 4):
            uct_check(C, m)
        assert calls == Counter(map(id, C.differentials.values()))
        assert groups == [reference_homology_int(C, n) for n in C.degrees()]


def test_homology_int_column_map():
    C = int_chain_complex(0, {0: 2, 1: 1},
                          {1: RatMatrix.from_rows([[2], [4]])})
    assert homology_int(C, 1) == FinAbGroup(0, ())
    assert homology_int(C, 0) == FinAbGroup(1, (2,))


def test_homology_free_rank_matches_rational_rank():
    rng = random.Random(6)
    for _ in range(15):
        C = random_int_chain(rng)
        for n in C.degrees():
            hq = (C.dim(n) - rank(differential(C, n))
                  - rank(differential(C, n + 1)))
            assert homology_int(C, n).free_rank == hq


def test_homology_int_matches_kernel_lattice_reference():
    rng = random.Random(13)
    for i in range(220):
        C = random_int_chain(rng, max_deg=rng.randint(1, 4),
                             max_pieces=rng.randint(1, 8),
                             max_mult=rng.choice((2, 6, 12)))
        for n in C.degrees():
            assert homology_int(C, n) == reference_homology_int(C, n), (i, n)


SURFACES = {
    # H_0, H_1, H_2 and dim H_n(C (x) Z/p) for p = 2, 3
    "RP2": (RP2, [FinAbGroup(1, ()), FinAbGroup(0, (2,)), FinAbGroup(0, ())],
            {2: (1, 1, 1), 3: (1, 0, 0)}),
    "torus": (TORUS, [FinAbGroup(1, ()), FinAbGroup(2, ()),
                      FinAbGroup(1, ())], {2: (1, 2, 1), 3: (1, 2, 1)}),
}


@pytest.mark.parametrize("subdivisions", [0, 1, 2])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_surface_homology_known_answers(surface, subdivisions, tmp_path,
                                        capsys):
    """The projective plane and the torus, as triangulated and after one and
    two barycentric subdivisions: their boundary matrices, entries -1, 0
    and 1, give the known integral homology, and `exhom uct` the known
    dimensions mod 2 and mod 3."""
    triangles, groups, mod_p = SURFACES[surface]
    for _ in range(subdivisions):
        triangles = barycentric(triangles)
    C = simplicial_chain(triangles)
    assert [homology_int(C, n) for n in range(3)] == groups
    f = tmp_path / "c.json"
    f.write_text(json.dumps({
        "dims": {str(n): d for n, d in C.dims.items()},
        "differentials": {str(n): num_rows(D)
                          for n, D in C.differentials.items()}}))
    for p, dims in mod_p.items():
        assert main(["uct", "--input", str(f), "--mod", str(p)]) == 0
        assert capsys.readouterr().out == "uct: PASS\n" + "".join(
            f"  degree {n}: {d} vs {d}  ok\n" for n, d in enumerate(dims))


BUILDINGS = ((2, 3, None), (3, 3, None), (2, 4, None), (2, 4, (1,)),
             (2, 4, (2,)), (2, 4, (1, 3)), (2, 4, (2, 3)), (3, 4, (1, 3)),
             (2, 5, (2, 3)), (3, 4, None))


@pytest.mark.parametrize("q, n, types", BUILDINGS, ids=[
    f"GL{n}(F{q})" + ("-J" + "".join(map(str, J)) if J else "")
    for q, n, J in BUILDINGS])
def test_tits_building_homology_known_answers(q, n, types):
    """The order complex of the proper nonzero subspaces of F_q^n, or of
    those of dimension in a type set J: its reduced integral homology is
    free of rank beta_J(q), the descent-set sum, in degree |J| - 1 only
    (Bjorner), which is q^(n(n-1)/2) for the whole building (Solomon-Tits).
    uct passes mod 2 and mod 3, every nonzero invariant factor of every
    boundary map is 1, and a copy with one sign flipped is no longer a
    complex or, with one map only, loses the closed form."""
    J = types or range(1, n)
    C, top, beta = building_chain(q, n, types), len(J) - 1, \
        descent_weight(q, n, J)
    if types is None:
        assert beta == q ** (n * (n - 1) // 2)
    # the two closed forms check each other, and the flags count the cells
    assert beta == sum((-1) ** (len(J) - k) * flag_count(q, n, K)
                       for k in range(len(J) + 1) for K in combinations(J, k))
    assert [C.dim(k) for k in C.degrees()] == [
        sum(flag_count(q, n, K) for K in combinations(J, k + 1))
        for k in range(top + 1)]
    want = [FinAbGroup((k == 0) + beta * (k == top), ())
            for k in range(top + 1)]
    assert C.max_deg == top
    assert [homology_int(C, k) for k in C.degrees()] == want
    for p in (2, 3):
        assert uct_check(C, p).passed
    d = C.differentials
    assert all(x == 1 for D in d.values()
               for x in zlinalg.invariant_factors(D) if x)
    if top:
        D = d[top]
        flipped = {i: -x if i == min(D.columns[0]) else x
                   for i, x in D.columns[0].items()}
        bad = int_chain_complex(0, C.dims, {**d, top: RatMatrix(
            D.rows, D.cols, (flipped, *D.columns[1:]))})
        if top > 1:
            assert not validate_complex(bad)
        else:
            assert [homology_int(bad, k) for k in bad.degrees()] != want


def test_rank_mod_p_of_the_gl5_f2_building():
    """The building of GL_5(F_2), past MAX_TOTAL_DIM and so a library-only
    input: 372, 4,650, 13,020 and 9,765 cells.  Its reduced homology is
    free of rank 2^10 in degree 3 alone (Solomon-Tits), so the boundary
    ranks are forced, the same mod every prime: 371, then what each degree
    leaves over its incoming rank, and 2^10 left in the top degree."""
    C = building_chain(2, 5)
    assert [C.dim(k) for k in C.degrees()] == [372, 4650, 13020, 9765]
    want = (371, 4279, 8741)
    assert want[0] == C.dim(0) - 1
    assert [C.dim(k) - want[k - 1] for k in (1, 2)] == list(want[1:])
    assert C.dim(3) - want[2] == 2 ** 10 == descent_weight(2, 5, range(1, 5))
    for p in (2, 3):
        assert tuple(zlinalg._rank_mod_p(C.differentials[k], p)
                     for k in (1, 2, 3)) == want


def test_uct_mod_two_with_torsion():
    C = int_chain_complex(0, {0: 1, 1: 1}, {1: RatMatrix.from_rows([[2]])})
    report = uct_check(C, 2)
    assert report.passed
    assert [(n, l, r) for n, l, r in report.rows] == [(0, 1, 1), (1, 1, 1)]


def test_uct_invertible_mod_two():
    C = int_chain_complex(0, {0: 1, 1: 1}, {1: RatMatrix.from_rows([[3]])})
    report = uct_check(C, 2)
    assert report.passed
    assert [(n, l, r) for n, l, r in report.rows] == [(0, 0, 0), (1, 0, 0)]


def test_uct_zero_differentials():
    C = int_chain_complex(0, {0: 2, 1: 1}, {})
    for m in (2, 3, 5):
        report = uct_check(C, m)
        assert report.passed
        assert [(n, l) for n, l, _ in report.rows] == [(0, 2), (1, 1)]


def test_uct_tests_primality_once(monkeypatch):
    """uct_check decides once that m is prime; the mod-m ranks of its
    differentials do not test it again."""
    C = random_int_chain(random.Random(44), max_deg=4, max_pieces=8)
    assert len(C.differentials) >= 2
    calls = []
    monkeypatch.setattr(complexes, "is_prime",
                        lambda n: calls.append(n) or is_prime(n))
    monkeypatch.setattr(zlinalg, "is_prime", None)
    p = 100000000003
    assert is_prime(p)
    assert uct_check(C, p).passed and calls == [p]


def test_uct_composite_modulus_no_cross_check():
    C = int_chain_complex(0, {0: 1, 1: 1}, {1: RatMatrix.from_rows([[2]])})
    report = uct_check(C, 6)
    assert report.rows == ((0, 1), (1, 1))
    assert "not prime" in report.note


def test_hom_dual_transpose():
    C = cochain_complex(0, {0: 1, 1: 2}, {0: RatMatrix.from_rows([[1], [1]])})
    D = hom_dual(C)
    assert D.dim(0) == 2 and D.dim(1) == 1
    assert differential(D, 0) == RatMatrix.from_rows([[1, 1]])


def test_hom_dual_involution_and_duality():
    rng = random.Random(11)
    for _ in range(10):
        C = random_dense_cochain(rng)
        D = hom_dual(C)
        DD = hom_dual(D)
        assert dict(DD.dims) == dict(C.dims)
        assert cohomology_dims(DD) == cohomology_dims(C)
        m = C.min_deg + C.max_deg
        hc = cohomology_dims(C)
        hd = cohomology_dims(D)
        for n in C.degrees():
            assert hd.get(m - n, 0) == hc.get(n, 0)


def test_hom_tensor_compatibility():
    """dim H(dual(C) (x) dual(D)) agrees with dim H(dual(C (x) D)) degreewise."""
    rng = random.Random(12)
    for _ in range(8):
        C = random_dense_cochain(rng, max_deg=2, max_pieces=3)
        D = random_dense_cochain(rng, max_deg=2, max_pieces=3)
        left = cohomology_dims(tensor_product(hom_dual(C), hom_dual(D)))
        right = cohomology_dims(hom_dual(tensor_product(C, D)))
        assert {n: v for n, v in left.items() if v} \
            == {n: v for n, v in right.items() if v}


def test_validate_names_the_degree_of_the_first_nonzero_composite():
    from exhom.complexes import _nonzero_composite
    one = RatMatrix.from_rows([[1]])
    C = int_chain_complex(3, {3: 1, 4: 1, 5: 1, 6: 1},
                          {4: one, 5: one, 6: RatMatrix.from_rows([[2]])})
    assert not validate_complex(C)
    assert _nonzero_composite(C) == 4  # d_4 o d_5, the lower degree first
    D = cochain_complex(0, {0: 1, 1: 1, 2: 1},
                        {0: RatMatrix.from_rows([[1]]),
                         1: RatMatrix.from_rows([[1]])})
    assert _nonzero_composite(D) == 0
    with pytest.raises(TypeError, match="not a complex"):
        validate_complex(RatMatrix.identity(1))


def test_kunneth_past_a_thousand_cells():
    """Two conjugated complexes whose tensor product has more than 1,000
    basis vectors: H(C (x) D) agrees with the Kunneth convolution of the
    dims known from the pieces (each arrow one nonzero entry in its own row
    and column, so it kills one dimension at each end)."""
    rng = random.Random(81)
    known = []
    for _ in range(2):
        C = random_cochain(rng, max_deg=2, max_pieces=40)
        nnz = {n: sum(map(len, d.columns)) for n, d in C.differentials.items()}
        known.append({n: C.dim(n) - nnz.get(n, 0) - nnz.get(n - 1, 0)
                      for n in C.degrees()})
        known.append(conjugate_cochain(rng, C))
    hc, C, hd, D = known
    assert sum(C.dims.values()) * sum(D.dims.values()) > 1000
    report = kunneth_check(C, D)
    assert report.passed
    assert [(n, lhs) for n, lhs, _ in report.rows] == [
        (n, sum(hc.get(i, 0) * hd.get(n - i, 0) for i in hc))
        for n in range(C.min_deg + D.min_deg, C.max_deg + D.max_deg + 1)]
