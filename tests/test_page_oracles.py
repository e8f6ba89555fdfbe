"""Every page of both spectral sequences against two independent oracles.

* Known answers: staircase zigzags carry exactly one d_r each, so every
  page, d_r rank, limit, stable page and induced filtration is known from
  the construction.
* The defining formula, computed slowly with coordinate filtrations:

      Z_r^{p,q} = F^p T^{p+q}  intersect  D^{-1}(F^{p+r} T^{p+q+1})
      B_r^{p,q} = Z_{r-1}^{p+1,q-1} + D Z_{r-1}^{p-r+1,q+r-2}
      E_r^{p,q} = Z_r^{p,q} / B_r^{p,q}

  F^p T^n is spanned by the coordinates of level >= p, so Z_r^{p,q} is the
  kernel of the block of D^n from the columns of level >= p to the rows of
  level < p+r.
"""

import random

from conftest import (
    Subspace,
    apply,
    differential,
    filtration_spaces,
    fraction_rows,
    kernel_basis,
    page_representatives,
    random_double_complex,
    random_zigzag_double_complex,
    subspace_intersect,
    subspace_sum,
)
from exhom.qlinalg import RatMatrix
from exhom.spectral import (
    COLUMN,
    ROW,
    filtration_on_total,
    spectral_pages,
)


class ReferencePages:
    """E_r and d_r of one filtration straight from the Z_r/B_r formula."""

    def __init__(self, K, axis):
        self.T = K.total
        self.top = K.max_r + K.max_c
        # T^n stacks the blocks K^{r,n-r} in increasing r
        self.levels = {
            n: [r if axis == COLUMN else n - r
                for r in range(n + 1)
                for _ in range(K.dims.get((r, n - r), 0))]
            for n in range(self.top + 2)}
        self._z = {}

    def dim(self, n):
        return len(self.levels.get(n, ()))

    def Z(self, r, p, n):
        key = (r, p, n)
        if key not in self._z:
            cols = [i for i, lv in enumerate(self.levels.get(n, ()))
                    if lv >= p]
            rows = [j for j, lv in enumerate(self.levels.get(n + 1, ()))
                    if lv < p + r]
            D = fraction_rows(differential(self.T, n))
            block = RatMatrix.from_rows(
                [[D[j][i] for i in cols] for j in rows], len(cols))
            vecs = []
            for k in kernel_basis(block).vectors():
                v = [0] * self.dim(n)
                for i, x in zip(cols, k):
                    v[i] = x
                vecs.append(v)
            self._z[key] = Subspace.span(self.dim(n), vecs)
        return self._z[key]

    def image(self, S, n):
        """D^n(S) inside T^{n+1}."""
        D = differential(self.T, n)
        return Subspace.span(self.dim(n + 1), [apply(D, v) for v in S.vectors()])

    def B(self, r, p, q):
        n = p + q
        first = self.Z(r - 1, p + 1, n)
        if n == 0:
            return first
        return subspace_sum(first, self.image(self.Z(r - 1, p - r + 1, n - 1),
                                              n - 1))

    def e_dim(self, r, p, q):
        num, den = self.Z(r, p, p + q), self.B(r, p, q)
        assert num.contains_space(den)
        return num.dim - den.dim

    def d_rank(self, r, p, q):
        """Rank of d_r: E_r^{p,q} -> E_r^{p+r,q-r+1}."""
        if p + q + 1 > self.top:
            return 0
        den = self.B(r, p + r, q - r + 1)
        image = self.image(self.Z(r, p, p + q), p + q)
        return subspace_sum(image, den).dim - den.dim


def test_zigzag_known_answers_every_page():
    rng = random.Random(31)
    ranks = {}
    for _ in range(40):
        K, Z = random_zigzag_double_complex(rng)
        for axis in (COLUMN, ROW):
            P = spectral_pages(K, axis)
            assert sorted(P.pages) == list(range(1, K.max_r + K.max_c + 3))
            for r, grid in P.pages.items():
                assert {pq: d for pq, (d, _) in grid.items()} \
                    == Z.page_dims(axis, r)
            assert P.d_ranks == Z.d_ranks(axis)
            assert P.limit == Z.page_dims(axis, K.max_r + K.max_c + 2)
            assert P.stable_page == Z.stable_page(axis)
            for n in range(K.max_r + K.max_c + 1):
                assert filtration_on_total(K, axis, n).dims() \
                    == Z.filtration_dims(axis, n)
            for (r, _, _), rk in P.d_ranks.items():
                ranks[r] = ranks.get(r, 0) + rk
    # the instances exercise every d_r the generator can carry
    assert set(ranks) == {1, 2, 3}


def test_pairing_matches_reference_formula():
    rng = random.Random(32)
    instances = [random_zigzag_double_complex(rng)[0] for _ in range(12)]
    instances += [random_double_complex(rng, max_r=2, max_c=2)
                  for _ in range(12)]
    for K in instances:
        for axis in (COLUMN, ROW):
            P = spectral_pages(K, axis)
            representatives = page_representatives(K, P)
            ref = ReferencePages(K, axis)
            max_p, max_q = ((K.max_r, K.max_c) if axis == COLUMN
                            else (K.max_c, K.max_r))
            for r in sorted(P.pages):
                for p in range(max_p + 1):
                    for q in range(max_q + 1):
                        dim = ref.e_dim(r, p, q)
                        assert P.dim(r, p, q) == dim
                        if r <= ref.top + 1:
                            assert P.d_ranks.get((r, p, q), 0) \
                                == ref.d_rank(r, p, q)
                        if not dim:
                            continue
                        chains = representatives[r][(p, q)]
                        assert len(chains) == dim
                        reps = Subspace.span(ref.dim(p + q), chains)
                        Z = ref.Z(r, p, p + q)
                        assert reps.dim == dim
                        assert Z.contains_space(reps)
                        # the representatives complement B_r inside Z_r
                        assert subspace_sum(reps, ref.B(r, p, q)).dim == Z.dim


def test_filtration_intersections_match_basis_free_formula():
    """dim(F^p cap G^q) in H^n against the same count in T^n, which needs
    no basis of H^n:

        dim(((F^pT cap Z) + B) cap ((G^qT cap Z) + B)) - dim B

    with Z = ker D^n and B = D T^{n-1}; F^pT cap Z is Z_r^{p,n-p} for r
    past the top."""
    rng = random.Random(33)
    # many pieces on a small grid put several classes in one degree
    instances = [random_zigzag_double_complex(rng, grid=3, pieces=12)[0]
                 for _ in range(10)]
    instances += [random_double_complex(rng, max_r=2, max_c=2)
                  for _ in range(10)]
    for K in instances:
        col, row = ReferencePages(K, COLUMN), ReferencePages(K, ROW)
        far = col.top + 2
        for n in range(col.top + 1):
            F = filtration_spaces(filtration_on_total(K, COLUMN, n))
            G = filtration_spaces(filtration_on_total(K, ROW, n))
            B = (col.image(Subspace.full(col.dim(n - 1)), n - 1) if n
                 else Subspace.zero(col.dim(n)))
            for p in range(n + 2):
                FB = subspace_sum(col.Z(far, p, n), B)
                for q in range(n + 2):
                    GB = subspace_sum(row.Z(far, q, n), B)
                    assert subspace_intersect(F[p], G[q]).dim \
                        == subspace_intersect(FB, GB).dim - B.dim
