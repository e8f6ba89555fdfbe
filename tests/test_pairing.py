"""The fraction-free persistence pairing of `complexes`.

* Against the `Fraction` pairing it replaced (`conftest.reference_pairing`):
  the same generators, chains in the last degree paired that are nonzero
  rational multiples of the reference chains, and equal spans, on both axes
  and unfiltered.  Paired one degree past the top, it builds no chain.
* Its chains are sparse, {index: nonzero int}, and their size stays
  bounded by content removal.
* Known answers at total dimension 472, a size the `Fraction` engine made
  too slow for the suite, and at 508 with corners: pages, filtrations and
  every dim(F^p + G^q) of `oppose`.
* The two filtrations of `oppose` share one Tot, scaled once, and pair it
  twice: the column pairing's unpaired cycles are the basis of H^n both
  are written on.
* An absent (zero) differential is read as zero columns, with no zero
  matrix built.
* A pairing up to a degree n below the top starts at d^{n-1}: the
  filtrations on H^n are those of a pairing from the lowest degree on.
* Every item it returns is a `_Generator` whose names read its fields.
"""

import random
from collections import Counter
from fractions import Fraction
from math import inf, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    Subspace,
    blocks,
    page_representatives,
    random_double_complex,
    random_zigzag_double_complex,
    reference_pairing,
    rescale_cells,
    to_dense,
)
from exhom import complexes, spectral
from exhom.complexes import (
    CochainComplex,
    _Generator,
    _pairing,
    cochain_complex,
    cohomology_dims,
)
from exhom.qlinalg import RatMatrix
from exhom.spectral import (
    COLUMN,
    ROW,
    _levels,
    double_complex,
    filtration_on_total,
    spectral_pages,
)


@pytest.fixture(scope="module")
def zigzag_472():
    K, Z = random_zigzag_double_complex(random.Random(5), grid=6, pieces=300)
    assert sum(K.dims.values()) == 472
    return K, Z


@pytest.fixture(scope="module")
def corners_508():
    """`zigzag_472` plus 12 corners, classes spread over two cells."""
    K, Z = random_zigzag_double_complex(random.Random(5), grid=6, pieces=300,
                                        corners=12)
    assert sum(K.dims.values()) == 508
    return K, Z


def _is_multiple(chain, ref):
    """True iff chain = c * ref for a nonzero rational c."""
    k = next(j for j, x in enumerate(ref) if x)
    c = Fraction(chain[k]) / ref[k]
    return c != 0 and all(x == c * y for x, y in zip(chain, ref))


def test_integer_pairing_matches_fraction_reference():
    rng = random.Random(34)
    instances = [random_zigzag_double_complex(rng)[0] for _ in range(30)]
    instances += [random_double_complex(rng) for _ in range(30)]
    for K in instances:
        T = K.total
        for axis in (COLUMN, ROW, None):
            levels = _levels(K, axis) if axis else {}
            gens = _pairing(T, levels, T.max_deg + 1)
            ref = reference_pairing(T, levels, T.max_deg)
            assert [g[:5] for g in gens] == [h[:5] for h in ref]
            assert all(g.chain == {} for g in gens)
            for n in T.degrees():
                gens = [g for g in _pairing(T, levels, n) if g.n == n]
                want = [h for h in ref if h.n == n]
                assert [g[:5] for g in gens] == [h[:5] for h in want]
                for g, h in zip(gens, want):
                    assert all(0 <= j < T.dim(n) for j in g.chain)
                    assert all(type(x) is int and x
                               for x in g.chain.values())
                    assert _is_multiple(to_dense(g.chain, T.dim(n)), h.chain)
            if axis is None:
                for n in T.degrees():
                    got = [to_dense(g.chain, T.dim(n))
                           for g in _pairing(T, {}, n)
                           if g.n == n and g.life == inf]
                    want = [h.chain for h in ref
                            if h.n == n and h.life == inf]
                    assert Subspace.span(T.dim(n), got) \
                        == Subspace.span(T.dim(n), want)
                continue
            P = spectral_pages(K, axis)
            for r, grid in page_representatives(K, P).items():
                for (p, q), chains in grid.items():
                    want = [h.chain for h in ref if h.life >= r
                            and (h.level, h.n - h.level) == (p, q)]
                    assert Subspace.span(T.dim(p + q), chains) \
                        == Subspace.span(T.dim(p + q), want)


def test_chain_entries_stay_small(zigzag_472):
    """Content removal keeps chain entries near 70 bits here; without it
    they pass 1000.  Every basis vector of the last degree paired carries a
    chain, none empty, and none stores a zero, as a dense one would."""
    K, _ = zigzag_472
    T = K.total
    for axis in (COLUMN, ROW):
        levels = _levels(K, axis)
        chains = [g.chain for n in T.degrees()
                  for g in _pairing(T, levels, n) if g.n == n]
        assert len(chains) == sum(T.dims.values())
        assert all(chains) and not any(0 in c.values() for c in chains)
        bits = [abs(x).bit_length() for c in chains for x in c.values()]
        assert len(bits) < sum(T.dim(n) ** 2 for n in T.degrees())
        assert max(bits) <= 128


def test_zigzag_known_answers_at_size(zigzag_472):
    K, Z = zigzag_472
    top = K.max_r + K.max_c
    for axis in (COLUMN, ROW):
        P = spectral_pages(K, axis)
        assert sorted(P.pages) == list(range(1, top + 3))
        for r, grid in P.pages.items():
            assert {pq: d for pq, (d, _) in grid.items()} \
                == Z.page_dims(axis, r)
        assert P.d_ranks == Z.d_ranks(axis)
        assert P.limit == Z.page_dims(axis, top + 2)
        assert P.stable_page == Z.stable_page(axis)
        for n in range(top + 1):
            assert filtration_on_total(K, axis, n).dims() \
                == Z.filtration_dims(axis, n)


@pytest.mark.parametrize("instance", ["zigzag_472", "corners_508"])
def test_sum_dims_and_verdicts_known_at_size(request, instance):
    """The relative position of the column and row filtrations in every
    degree, each dim(F^p + G^q) read off it, and both verdicts, against the
    classes of `Zigzags`, which reads no row of the library."""
    K, Z = request.getfixturevalue(instance)
    for n in range(K.max_r + K.max_c + 1):
        F, G = (filtration_on_total(K, axis, n) for axis in (COLUMN, ROW))
        table, f, g = spectral._relative_position(F, G), F.dims(), G.dims()
        assert table == Counter(Z.classes(n))
        assert [[f[p] + g[q] - sum(c for (a, b), c in table.items()
                                   if a >= p and b >= q)
                 for q in range(n + 2)] for p in range(n + 2)] \
            == [[Z.sum_dim(n, p, q) for q in range(n + 2)]
                for p in range(n + 2)]
        assert spectral._verdicts(F, G) == Z.verdicts(n)


def test_oppose_builds_tot_once_and_pairs_twice(monkeypatch):
    """Building K and both filtrations, in either order: one Tot (built by
    the builder's one `_totalize`), each column of a store over den > 1
    scaled once and none over den 1, two pairings, the column pairing
    giving the basis of H^n both are written on."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(spectral, "_totalize",
                        counted("total", spectral._totalize))
    monkeypatch.setattr(complexes, "_primitive",
                        counted("scale", complexes._primitive))
    pairing = counted("pair", complexes._pairing)
    monkeypatch.setattr(spectral, "_pairing", pairing)
    monkeypatch.setattr(complexes, "_pairing", pairing)
    for first, second in ((COLUMN, ROW), (ROW, COLUMN)):
        calls.clear()
        K, Z = random_zigzag_double_complex(random.Random(41), grid=3,
                                            pieces=12)
        n = 3
        F = filtration_on_total(K, first, n)
        G = filtration_on_total(K, second, n)
        assert F.ambient_dim == 2
        assert (F.dims(), G.dims()) \
            == (Z.filtration_dims(first, n), Z.filtration_dims(second, n))
        # the column classes are that basis, so they carry no rows
        assert (F.rows is None, G.rows is None) \
            == (first == COLUMN, second == COLUMN)
        dens = [D.den for D in K.total.differentials.values()]
        assert 1 in dens and max(dens) > 1
        columns = sum(D.cols for D in K.total.differentials.values()
                      if D.den > 1)
        assert calls == {"total": 1, "pair": 2, "scale": columns}


def test_absent_maps_build_no_zero_matrix(monkeypatch):
    """Every column of an absent differential is a cycle or a cleared
    target: no zero matrix is built for it.  An empty (0 x n) basis, as of
    a zero subspace, is no zero matrix and stays allowed."""
    post = RatMatrix.__post_init__

    def refuse(self):
        post(self)
        if self.rows and self.cols and not any(self.columns):
            raise AssertionError("zero matrix built")

    monkeypatch.setattr(RatMatrix, "__post_init__", refuse)
    one = RatMatrix.identity(1)
    # d^0 (2 -> 3) and d^2 (1 -> 2) are absent
    C = cochain_complex(0, {0: 2, 1: 3, 2: 1, 3: 2},
                        {1: RatMatrix.from_rows([[1, 2, 0]], 3)})
    assert cohomology_dims(C) == {0: 2, 1: 2, 2: 0, 3: 2}
    assert Subspace.span(2, [to_dense(g.chain, 2) for g in _pairing(C, {}, 3)
                             if g.n == 3 and g.life == inf]) \
        == Subspace.full(2)
    # K^{0,0} maps nowhere, so D^0: T^0 -> T^1 is absent
    K = double_complex(1, 1, {(0, 0): 2, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                       {(0, 1): one}, {})
    assert cohomology_dims(K.total) == {0: 2, 1: 1, 2: 0}
    for axis, cell, dims in ((COLUMN, (1, 0), (1, 1, 0)),
                             (ROW, (0, 1), (1, 0, 0))):
        assert spectral_pages(K, axis).limit == {(0, 0): 2, cell: 1}
        assert filtration_on_total(K, axis, 0).dims() == (2, 0)
        assert filtration_on_total(K, axis, 1).dims() == dims
        assert filtration_on_total(K, axis, 2).dims() == (0, 0, 0, 0)


def _from_the_lowest_degree(C, levels, last):
    """`_pairing` of C from its lowest degree on, whatever `last`: that of
    a view of C whose top degree is below last."""
    view = CochainComplex(C.min_deg, min(C.max_deg, last - 1), C.dims,
                          C.differentials)
    return _pairing(view, levels, last)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), zigzag=st.booleans())
def test_filtrations_pair_only_the_last_two_degrees(seed, zigzag):
    """Both filtrations on every H^n, levels and rows, are those that a
    pairing from the lowest degree on gives."""
    def build():
        rng = random.Random(seed)
        return (random_zigzag_double_complex(rng, grid=3)[0] if zigzag
                else random_double_complex(rng))

    def filtrations(K):
        return [filtration_on_total(K, axis, n) for axis in (COLUMN, ROW)
                for n in range(K.max_r + K.max_c + 1)]

    got = filtrations(build())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_pairing", _from_the_lowest_degree)
        assert filtrations(build()) == got


def test_pairing_returns_records_whose_names_read_their_fields():
    """Sources, unpaired classes and targets (each kind of record), in the
    last degree paired and below it, on both axes and unfiltered."""
    rng, kinds = random.Random(29), Counter()
    for _ in range(10):
        K = random_zigzag_double_complex(rng, grid=3)[0]
        T = K.total
        for levels in (_levels(K, COLUMN), _levels(K, ROW), {}):
            for last in (*T.degrees(), T.max_deg + 1):
                for g in _pairing(T, levels, last):
                    assert type(g) is _Generator and len(g) == 6
                    assert (g.n, g.i, g.level, g.life, g.source, g.chain) \
                        == tuple(g)
                    kinds[g.source, g.life == inf] += 1
    assert len(kinds) == 3, kinds


def test_pairing_matches_reference_over_the_lcm_of_cell_denominators():
    """Zigzags whose cells carry coprime prime scales: the blocks leaving
    one degree have different denominators, Tot's columns are written over
    their lcm, and the pairing and its chains still match the `Fraction`
    reference on both axes."""
    rng = random.Random(71)
    lcm_cases = 0
    for _ in range(25):
        K = rescale_cells(random_zigzag_double_complex(rng, grid=3,
                                                       pieces=6)[0], rng)
        T = K.total
        for n, D in T.differentials.items():
            B = blocks(K)
            dens = {M.den for (r, s), M in (*B.horiz.items(),
                                            *B.vert.items()) if r + s == n}
            assert D.den == lcm(*dens)
            lcm_cases += D.den not in dens
        for axis in (COLUMN, ROW):
            levels = _levels(K, axis)
            ref = reference_pairing(T, levels, T.max_deg)
            for n in T.degrees():
                gens = [g for g in _pairing(T, levels, n) if g.n == n]
                want = [h for h in ref if h.n == n]
                assert [g[:5] for g in gens] == [h[:5] for h in want]
                for g, h in zip(gens, want):
                    assert 0 not in g.chain.values()
                    assert _is_multiple(to_dense(g.chain, T.dim(n)), h.chain)
    assert lcm_cases >= 10
