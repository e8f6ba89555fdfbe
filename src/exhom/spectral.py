"""First-quadrant double complexes and their two spectral sequences.

The engine totalizes a grid of commuting squares once (inserting the (-1)^r
sign itself), on the integer numerators of the blocks over the lcm of their
denominators, and filters the total complex T by column or by row: F^p T^n is
spanned by the block basis vectors of level >= p.  T is built when the
double complex is validated, by one D o D = 0 check on T (which holds iff
d'd' = 0, d''d'' = 0 and every square commutes), and is shared by every
pairing of it.  The pages are defined by

    Z_r^{p,q} = F^p T^{p+q}  intersect  D^{-1}(F^{p+r} T^{p+q+1})
    E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + D Z_{r-1}^{p-r+1,q+r-2})

and computed from the persistence pairing of T with these levels (the one
filtered column reduction of `complexes`): over a field a filtered complex
splits into interval pieces, which give every page and every d_r (Zomorodian
and Carlsson 2005; Basu and Parida 2017).  A reduced column pairs a source
of level p with a target of level p+k; for k >= 1 both live on pages 1..k
and add 1 to the rank of d_k at the source's cell, and their chains
represent them there.  Basis vectors left unpaired are cycles: they give
E_infinity, and the classes of those of level >= p span F^p H^n, written in
the H^n basis of the unfiltered pairing by the same reduction.  Filtrations
on total cohomology, the oppositeness test, the dimension criterion implying
it, and degeneration detection live here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Dict, List, Tuple

from .complexes import (CochainComplex, _classes, _composite,
                        _nonzero_composite, _pairing, _totalize)
from .qlinalg import RatMatrix, Subspace, is_complementary, subspace_sum

COLUMN = "column"
ROW = "row"
MAX_GRID = 64  # largest max_r and max_c a double complex may declare


class DoubleComplexError(ValueError):
    """Raised when a double complex violates its structural invariants."""


@dataclass(frozen=True)
class DoubleComplex:
    """Grid K^{r,s} for 0 <= r <= max_r, 0 <= s <= max_c with commuting
    horizontal (r+1) and vertical (s+1) differentials."""

    max_r: int
    max_c: int
    dims: Dict[Tuple[int, int], int]
    horiz: Dict[Tuple[int, int], RatMatrix]
    vert: Dict[Tuple[int, int], RatMatrix]

    def dim(self, r: int, s: int) -> int:
        return self.dims.get((r, s), 0)

    @cached_property
    def _total(self) -> CochainComplex:
        """Tot, built once and shared by every pairing of this complex."""
        return total_complex(self)


def double_complex(max_r: int, max_c: int,
                   dims: Dict[Tuple[int, int], int],
                   horiz: Dict[Tuple[int, int], RatMatrix],
                   vert: Dict[Tuple[int, int], RatMatrix]) -> DoubleComplex:
    """Build and validate a DoubleComplex: shapes, then D o D = 0 on Tot,
    which holds iff d'd' = 0, d''d'' = 0 and every square commutes."""
    if max_r < 0 or max_c < 0:
        raise DoubleComplexError(f"max_r and max_c must be >= 0, got "
                                 f"{max_r} and {max_c}")
    if max_r > MAX_GRID or max_c > MAX_GRID:
        raise DoubleComplexError(f"max_r and max_c must be at most {MAX_GRID}, "
                                 f"got {max_r} and {max_c}")
    dims = {c: d for c, d in dims.items() if d > 0}
    for (r, s) in dims:
        if not (0 <= r <= max_r and 0 <= s <= max_c):
            raise DoubleComplexError(f"cell ({r},{s}) outside declared rectangle")
    K = DoubleComplex(max_r, max_c,
                      dims,
                      {c: m for c, m in horiz.items() if m.rows and m.cols},
                      {c: m for c, m in vert.items() if m.rows and m.cols})
    for name, maps, dr, ds in (("horiz", K.horiz, 1, 0), ("vert", K.vert, 0, 1)):
        for (r, s), M in maps.items():
            want = (K.dim(r + dr, s + ds), K.dim(r, s))
            if (M.rows, M.cols) != want:
                raise DoubleComplexError(
                    f"{name} at ({r},{s}) has shape {M.rows}x{M.cols}, "
                    f"expected {want[0]}x{want[1]}")
    if _nonzero_composite(K._total) is not None:
        raise DoubleComplexError(_first_defect(K))
    return K


def _first_defect(K: DoubleComplex) -> str:
    """The message for the first nonzero block of D o D on Tot, cells (r, s)
    in sorted order and, within a cell, horiz, vert, square.  D o D = 0 is
    exactly d'd' = 0, d''d'' = 0 and commuting squares: from K^{r,s} its
    three components land in distinct cells, d'd' in (r+2, s), d''d'' in
    (r, s+2) and (-1)^r (d'd'' - d''d') in (r+1, s+1)."""
    T = K._total
    r_of, s_of = _levels(K, COLUMN), _levels(K, ROW)
    kinds = {2: (0, "horiz composite nonzero"),  # by target r minus r
             0: (1, "vert composite nonzero"),
             1: (2, "square does not commute")}
    defects = []
    for n, D in T.differentials.items():
        P = _composite(T.differentials.get(n + 1), D)
        if P is None:
            continue
        for k in (k for k, x in enumerate(P.nums) if x):
            i, j = divmod(k, P.cols)
            r, s = r_of[n][j], s_of[n][j]
            defects.append((r, s, *kinds[r_of[n + 2][i] - r]))
    r, s, _, what = min(defects)
    return f"{what} at ({r},{s})"


def total_complex(K: DoubleComplex) -> CochainComplex:
    """Totalization T^n = sum_{r+s=n} K^{r,s} with D = d' + (-1)^r d''."""
    return _totalize(0, K.dims, K.horiz, K.vert)


@dataclass(frozen=True)
class SpectralPages:
    """All computed pages of one of the two spectral sequences.

    pages[r][(p,q)] = (dim, tuple of dim chains in T^{p+q} coordinates
    whose classes form a basis of E_r^{p,q});
    d_ranks[(r,p,q)] = rank of d_r out of (p,q) (zero entries omitted);
    limit[(p,q)] = E_infinity dimension; stable_page = first page equal to
    the limit with all later differentials zero.
    """

    filtration_axis: str
    pages: Dict[int, Dict[Tuple[int, int], Tuple[int, tuple]]]
    d_ranks: Dict[Tuple[int, int, int], int]
    limit: Dict[Tuple[int, int], int]
    stable_page: int

    def dim(self, r: int, p: int, q: int) -> int:
        cell = self.pages.get(r, {}).get((p, q))
        return cell[0] if cell else 0

    def d_rank(self, r: int, p: int, q: int) -> int:
        return self.d_ranks.get((r, p, q), 0)


@dataclass(frozen=True)
class FiltrationChain:
    """Descending filtration F^0 >= ... >= F^{n+1} on H^n, in H^n coordinates."""

    n: int
    spaces: Tuple[Subspace, ...]

    def __post_init__(self):
        if len(self.spaces) != self.n + 2:
            raise ValueError("filtration chain must have n+2 steps")
        amb = self.spaces[0].ambient_dim
        if self.spaces[0].dim != amb:
            raise ValueError("F^0 must be the full space")
        if self.spaces[-1].dim != 0:
            raise ValueError("F^{n+1} must be zero")
        for a, b in zip(self.spaces, self.spaces[1:]):
            if not a.contains_space(b):
                raise ValueError("filtration steps are not nested")

    @property
    def ambient_dim(self) -> int:
        return self.spaces[0].ambient_dim

    def dims(self) -> Tuple[int, ...]:
        return tuple(s.dim for s in self.spaces)


def _levels(K: DoubleComplex, axis: str) -> Dict[int, List[int]]:
    """Level of each block basis vector of T^n in the filtration by `axis`."""
    if axis not in (COLUMN, ROW):
        raise ValueError(f"axis must be '{COLUMN}' or '{ROW}'")
    levels: Dict[int, List[int]] = {}
    for (r, s), d in sorted(K.dims.items()):  # the order of `_totalize`
        levels.setdefault(r + s, []).extend([r if axis == COLUMN else s] * d)
    return levels


def spectral_pages(K: DoubleComplex, axis: str) -> SpectralPages:
    """Pages E_1, E_2, ... of the chosen filtration, with d_r ranks and limit."""
    T = K._total
    gens = _pairing(T, _levels(K, axis), T.max_deg)
    last = K.max_r + K.max_c + 1  # beyond this every d_r vanishes (first quadrant)
    pages: Dict[int, Dict[Tuple[int, int], Tuple[int, tuple]]] = {}
    for r in range(1, last + 2):
        alive: Dict[Tuple[int, int], list] = {}
        for g in gens:
            if g.life >= r:
                alive.setdefault((g.level, g.n - g.level), []).append(g.chain)
        pages[r] = {pq: (len(chains), tuple(chains))
                    for pq, chains in alive.items()}
    d_ranks = dict(Counter((g.life, g.level, g.n - g.level) for g in gens
                           if g.source and g.life))
    limit = {pq: dim for pq, (dim, _) in pages[last + 1].items()}
    stable = 1 + max((g.life for g in gens if g.source), default=0)
    return SpectralPages(filtration_axis=axis, pages=pages, d_ranks=d_ranks,
                         limit=limit, stable_page=stable)


def filtration_on_total(K: DoubleComplex, axis: str, n: int) -> FiltrationChain:
    """Filtration F^p H^n(Tot) induced by the chosen axis: F^p is spanned by
    the classes of the unpaired cycles of level >= p."""
    levels = _levels(K, axis)
    if n < 0 or n > K.max_r + K.max_c:
        return FiltrationChain(max(n, 0), tuple(
            Subspace.zero(0) for _ in range(max(n, 0) + 2)))
    T = K._total
    cycles = [g for g in _pairing(T, levels, n)
              if g.n == n and g.life == inf]
    b, coords = _classes(T, n, [g.chain for g in cycles])
    return FiltrationChain(n, tuple(
        Subspace.span(b, [v for g, v in zip(cycles, coords) if g.level >= p])
        for p in range(n + 2)))


def opposite_check(F: FiltrationChain, G: FiltrationChain) -> bool:
    """True iff F^p and G^{n+1-p} are complementary in H^n for every p."""
    if F.n != G.n or F.ambient_dim != G.ambient_dim:
        raise ValueError("filtration degree or ambient dimension mismatch")
    n = F.n
    return all(is_complementary(F.spaces[p], G.spaces[n + 1 - p])
               for p in range(n + 2))


def dimension_criterion(F: FiltrationChain, G: FiltrationChain) -> bool:
    """Sum condition plus the two dimension symmetries; implies oppositeness."""
    if F.n != G.n or F.ambient_dim != G.ambient_dim:
        raise ValueError("filtration degree or ambient dimension mismatch")
    n, h = F.n, F.ambient_dim
    for p in range(n + 2):
        if subspace_sum(F.spaces[p], G.spaces[n + 1 - p]).dim != h:
            return False
        if F.spaces[p].dim + F.spaces[n + 1 - p].dim != h:
            return False
        if G.spaces[p].dim + G.spaces[n + 1 - p].dim != h:
            return False
    return True


def degenerates_at(P: SpectralPages, r: int) -> bool:
    """True iff every differential on pages >= r has rank zero."""
    return not any(rk and page >= r for (page, _, _), rk in P.d_ranks.items())
