"""The fraction-free persistence pairing of `complexes`.

* Against the `Fraction` pairing it replaced (`conftest.reference_pairing`):
  the same generators, chains in the last degree paired that are nonzero
  rational multiples of the reference chains, and equal spans, on both axes
  and unfiltered.  Paired one degree past the top, it builds no chain.
* Its chains are ints, and their size stays bounded by content removal.
* Known answers at total dimension 472, a size the `Fraction` engine made
  too slow for the suite.
* The two filtrations of `oppose` share one Tot, scaled once, and pair it
  twice: the column pairing's unpaired cycles are the basis of H^n both
  are written on.
* An absent (zero) differential is read as zero columns, with no zero
  matrix built.
"""

import random
from collections import Counter
from fractions import Fraction
from math import inf

import pytest

from conftest import (
    Subspace,
    page_representatives,
    random_double_complex,
    random_zigzag_double_complex,
    reference_pairing,
)
from exhom import complexes, spectral
from exhom.complexes import (
    _pairing,
    cochain_complex,
    cohomology,
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
    total_complex,
)


@pytest.fixture(scope="module")
def zigzag_472():
    K, Z = random_zigzag_double_complex(random.Random(5), grid=6, pieces=300)
    assert sum(K.dims.values()) == 472
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
        T = total_complex(K)
        for axis in (COLUMN, ROW, None):
            levels = _levels(K, axis) if axis else {}
            gens = _pairing(T, levels, T.max_deg + 1)
            ref = reference_pairing(T, levels, T.max_deg)
            assert [g[:5] for g in gens] == [h[:5] for h in ref]
            assert all(g.chain == () for g in gens)
            for n in T.degrees():
                gens = [g for g in _pairing(T, levels, n) if g.n == n]
                want = [h for h in ref if h.n == n]
                assert [g[:5] for g in gens] == [h[:5] for h in want]
                for g, h in zip(gens, want):
                    assert len(g.chain) == T.dim(n)
                    assert all(type(x) is int for x in g.chain)
                    assert _is_multiple(g.chain, h.chain)
            if axis is None:
                for n in T.degrees():
                    want = [h.chain for h in ref
                            if h.n == n and h.life == inf]
                    assert Subspace.span(T.dim(n), cohomology(T, n)[1]) \
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
    they pass 1000."""
    K, _ = zigzag_472
    T = total_complex(K)
    for axis in (COLUMN, ROW):
        levels = _levels(K, axis)
        bits = [abs(x).bit_length() for n in T.degrees()
                for g in _pairing(T, levels, n) if g.n == n for x in g.chain]
        assert len(bits) == sum(T.dim(n) ** 2 for n in T.degrees())
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


def test_oppose_builds_tot_once_and_pairs_twice(monkeypatch):
    """Building K and both filtrations, in either order: one Tot (built by
    the first pairing), each of its columns scaled once, two pairings, the
    column pairing giving the basis of H^n both are written on."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(spectral, "total_complex",
                        counted("total", spectral.total_complex))
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
        columns = sum(D.cols for D in K._total.differentials.values())
        assert calls == {"total": 1, "pair": 2, "scale": columns}


def test_absent_maps_build_no_zero_matrix(monkeypatch):
    """Every column of an absent differential is a cycle or a cleared
    target: no zero matrix is built for it.  An empty (0 x n) basis, as of
    a zero subspace, is no zero matrix and stays allowed."""
    zero = RatMatrix.zero.__func__

    def refuse(cls, rows, cols):
        if rows and cols:
            raise AssertionError("zero matrix built")
        return zero(cls, rows, cols)

    monkeypatch.setattr(RatMatrix, "zero", classmethod(refuse))
    one = RatMatrix.identity(1)
    # d^0 (2 -> 3) and d^2 (1 -> 2) are absent
    C = cochain_complex(0, {0: 2, 1: 3, 2: 1, 3: 2},
                        {1: RatMatrix.from_rows([[1, 2, 0]], 3)})
    assert cohomology_dims(C) == {0: 2, 1: 2, 2: 0, 3: 2}
    assert Subspace.span(2, cohomology(C, 3)[1]) == Subspace.full(2)
    # K^{0,0} maps nowhere, so D^0: T^0 -> T^1 is absent
    K = double_complex(1, 1, {(0, 0): 2, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                       {(0, 1): one}, {})
    assert cohomology_dims(total_complex(K)) == {0: 2, 1: 1, 2: 0}
    for axis, cell, dims in ((COLUMN, (1, 0), (1, 1, 0)),
                             (ROW, (0, 1), (1, 0, 0))):
        assert spectral_pages(K, axis).limit == {(0, 0): 2, cell: 1}
        assert filtration_on_total(K, axis, 0).dims() == (2, 0)
        assert filtration_on_total(K, axis, 1).dims() == dims
        assert filtration_on_total(K, axis, 2).dims() == (0, 0, 0, 0)
