import itertools

import pytest

from conftest import SteinbergLabel, delta, e2_dim, ext_dim, ext_row
from exhom.steinberg import (
    InducedSpectrum,
    _row,
    betti_profile,
    covering_filtration_dims,
    e2_table,
    paper_table_diff,
)


def test_label_validation():
    with pytest.raises(ValueError):
        SteinbergLabel.of(2, [3])
    with pytest.raises(ValueError):
        SteinbergLabel.of(0, [])
    with pytest.raises(ValueError):
        InducedSpectrum(-1, 0, 0)


def test_delta_examples():
    a = SteinbergLabel.of(3, [1, 2])
    b = SteinbergLabel.of(3, [2, 3])
    assert delta(a, b) == 2
    assert delta(a, a) == 0
    assert delta(a, SteinbergLabel.of(3, [])) == 2
    with pytest.raises(ValueError):
        delta(a, SteinbergLabel.of(4, [1]))


def test_ext_dim_single_degree():
    a = SteinbergLabel.of(2, [1])
    b = SteinbergLabel.of(2, [2])
    c = SteinbergLabel.of(3, [])
    dgt = delta(a, b) + delta(c, c)  # = 2
    for i in range(8):
        assert ext_dim(a, c, b, c, i) == (1 if i == dgt else 0)


def test_ext_dim_exhaustive_small():
    """Every quadruple of labels concentrates Ext in exactly one degree."""
    for d, dp in [(1, 1), (1, 2), (2, 2)]:
        subs_d = [frozenset(c) for k in range(d + 1)
                  for c in itertools.combinations(range(1, d + 1), k)]
        subs_dp = [frozenset(c) for k in range(dp + 1)
                   for c in itertools.combinations(range(1, dp + 1), k)]
        for s1, s2 in itertools.product(subs_d, repeat=2):
            for t1, t2 in itertools.product(subs_dp, repeat=2):
                I1, I2 = SteinbergLabel(d, s1), SteinbergLabel(d, s2)
                J1, J2 = SteinbergLabel(dp, t1), SteinbergLabel(dp, t2)
                hits = [i for i in range(2 * (d + dp) + 1)
                        if ext_dim(I1, J1, I2, J2, i)]
                assert hits == [delta(I1, I2) + delta(J1, J2)]


def test_row_is_the_ext_label_sum():
    """The four-term `_row` against the brute-force sum of `ext_dim` over
    the Kunneth pairs and the four constituents, every row of every d,
    d' <= 8, for multiplicity vectors that switch each weight on alone,
    together, and at distinct values."""
    spectra = [InducedSpectrum(*m) for m in (
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 3, 5))]
    rows = 0
    for d, dp in itertools.product(range(1, 9), repeat=2):
        for sp in spectra:
            for s in range(d + dp + 2):
                assert _row(d, dp, sp, s) == ext_row(d, dp, sp, s)
                rows += 1
    assert rows == 6 * sum(d + dp + 2 for d in range(1, 9)
                           for dp in range(1, 9))


def test_e2_trivial_spectrum_diagonal():
    """With all extra multiplicities zero only the Kunneth diagonal survives."""
    grid = e2_table(1, 1, InducedSpectrum(0, 0, 0)).grid
    assert grid == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_e2_general_cells():
    sp = InducedSpectrum(2, 3, 5)
    # r=s=2 over d=d'=2: i+j=2 has pairs (0,2),(1,1),(2,0)
    assert e2_dim(2, 2, sp, 2, 2) == 3 + sp.m10 + sp.m01 + 3 * sp.m11
    # corner cell fed only by the Steinberg (x) Steinberg constituent
    assert e2_dim(2, 2, sp, 0, 4) == sp.m11
    assert e2_dim(2, 2, sp, 4, 0) == sp.m11
    with pytest.raises(ValueError):
        e2_dim(0, 1, sp, 0, 0)


def reference_e2_dim(d, dp, spectrum, r, s):
    """The four-term sum cell by cell: every Kunneth pair i + j = s."""
    total = 0
    for i in range(max(0, s - dp), min(d, s) + 1):
        j = s - i
        total += ((1 if r == i + j else 0)
                  + (spectrum.m10 if r == (d - i) + j else 0)
                  + (spectrum.m01 if r == i + (dp - j) else 0)
                  + (spectrum.m11 if r == (d - i) + (dp - j) else 0))
    return total


def test_scattered_grid_matches_per_cell_sum():
    """e2_table, e2_dim, betti, covering_filtration_dims and betti_profile
    all read the one scattered grid; check it against the per-cell sum."""
    for d, dp in itertools.product(range(1, 7), repeat=2):
        top = d + dp
        cells = range(-1, top + 2)
        for m in itertools.product(range(3), repeat=3):
            sp = InducedSpectrum(*m)
            ref = {(r, s): reference_e2_dim(d, dp, sp, r, s)
                   for r in cells for s in cells}
            assert e2_table(d, dp, sp).grid \
                == {rs: v for rs, v in ref.items() if v}
            assert all(e2_dim(d, dp, sp, r, s) == v
                       for (r, s), v in ref.items())
            b = [sum(ref.get((r, n - r), 0) for r in range(n + 1))
                 for n in range(2 * top + 1)]
            dims = [tuple(sum(ref.get((r, n - r), 0) for r in range(i, n + 1))
                          for i in range(n + 2)) for n in range(2 * top + 1)]
            assert [tuple(covering_filtration_dims(d, dp, sp, n))
                    for n in range(2 * top + 1)] == dims
            prof = betti_profile(d, dp, sp)
            assert prof.b == tuple(b) and prof.filtrations == tuple(dims)


def test_e2_transpose_symmetries():
    """Swapping (d, m10) with (d', m01) transposes nothing on the diagonal
    sum; the grid itself is invariant under (r,s) -> (d+d'-r, d+d'-s)."""
    d, dp = 2, 3
    sp = InducedSpectrum(1, 2, 3)
    flipped = InducedSpectrum(sp.m01, sp.m10, sp.m11)
    top = d + dp
    for r in range(top + 1):
        for s in range(top + 1):
            assert e2_dim(d, dp, sp, r, s) == e2_dim(dp, d, flipped, r, s)
            assert e2_dim(d, dp, sp, r, s) \
                == e2_dim(d, dp, sp, top - r, top - s)


def test_betti_example():
    assert betti_profile(1, 1, InducedSpectrum(0, 0, 0)).b == (1, 0, 2, 0, 1)


def test_betti_poincare_duality():
    for d, dp in [(1, 2), (2, 2), (3, 1)]:
        for sp in [InducedSpectrum(0, 0, 0), InducedSpectrum(1, 2, 3)]:
            b = betti_profile(d, dp, sp).b
            assert b == b[::-1]


def test_betti_euler_characteristic():
    """Alternating sum collapses to a product formula; checked exhaustively."""
    for d in range(1, 5):
        for dp in range(1, 5):
            for sp in [InducedSpectrum(0, 0, 0), InducedSpectrum(1, 0, 0),
                       InducedSpectrum(0, 1, 0), InducedSpectrum(0, 0, 1),
                       InducedSpectrum(2, 3, 1)]:
                chi = sum((-1) ** n * bn
                          for n, bn in enumerate(betti_profile(d, dp, sp).b))
                assert chi == (d + 1) * (dp + 1) * (
                    1 + (-1) ** d * sp.m10 + (-1) ** dp * sp.m01
                    + (-1) ** (d + dp) * sp.m11)


def test_filtration_example():
    assert covering_filtration_dims(1, 1, InducedSpectrum(0, 0, 0), 2) \
        == [2, 2, 0, 0]


def test_filtration_consistency():
    """F^0 = b_n, F^{n+1} = 0, steps decreasing, graded pieces = grid cells."""
    for d, dp in [(1, 1), (2, 3)]:
        sp = InducedSpectrum(1, 2, 1)
        for n, bn in enumerate(betti_profile(d, dp, sp).b):
            dims = covering_filtration_dims(d, dp, sp, n)
            assert dims[0] == bn
            assert dims[-1] == 0
            assert all(a >= b for a, b in zip(dims, dims[1:]))
            for i in range(n + 1):
                assert dims[i] - dims[i + 1] == e2_dim(d, dp, sp, i, n - i)
    with pytest.raises(ValueError):
        covering_filtration_dims(1, 1, InducedSpectrum(0, 0, 0), 5)


def test_cap_identity():
    """dim F^i + dim F^{n+1-i} relates across complementary degrees:
    dim F^i H^n + dim F^{n+1-i} H^n = b_n whenever the grid is symmetric,
    which the four-term sum guarantees for n = d + dp."""
    for d, dp in [(1, 1), (2, 2), (2, 4)]:
        sp = InducedSpectrum(2, 1, 3)
        n = d + dp
        dims = covering_filtration_dims(d, dp, sp, n)
        bn = betti_profile(d, dp, sp).b[n]
        for i in range(n + 2):
            assert dims[i] + dims[n + 1 - i] == bn


def test_betti_profile_shape():
    prof = betti_profile(1, 1, InducedSpectrum(0, 0, 0))
    assert prof.b == (1, 0, 2, 0, 1)
    assert len(prof.filtrations) == 5
    assert prof.filtrations[2] == (2, 2, 0, 0)


def test_paper_table_diff_smallest_even_case():
    sp = InducedSpectrum(0, 0, 0)
    report = paper_table_diff(2, 2, sp)
    assert report.computed.at(0, 0) == 1 == report.stated[(0, 0)]
    assert report.computed.at(4, 4) == 1 == report.stated[(4, 4)]
    assert report.cell_diffs == {(1, 1): (2, 1), (2, 2): (3, 1),
                                 (3, 3): (2, 1)}
    assert report.betti_diffs == {2: (2, 1), 4: (3, 1), 6: (2, 1)}
    assert report.render() == report.render()
    assert "cell differences" in report.render()


def test_paper_table_diff_rejects_unstated_cases():
    for d, dp in [(1, 1), (2, 1), (4, 2), (3, 4)]:
        with pytest.raises(ValueError):
            paper_table_diff(d, dp, InducedSpectrum(0, 0, 0))
