"""First-quadrant double complexes and their two spectral sequences.

Validation checks d'd' = 0, d''d'' = 0 and every commuting square cell by
cell, each composite one product of block numerators.  The engine
totalizes the grid once, on the first pairing (inserting the (-1)^r sign
itself, on the blocks' numerators over the lcm of their denominators), and
filters the total complex T by column or by row: F^p T^n is spanned by the
block basis vectors of level >= p.  Every pairing of the complex shares
that T.  The pages are defined by

    Z_r^{p,q} = F^p T^{p+q}  intersect  D^{-1}(F^{p+r} T^{p+q+1})
    E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + D Z_{r-1}^{p-r+1,q+r-2})

and computed from the persistence pairing of T with these levels (the one
filtered column reduction of `complexes`): over a field a filtered complex
splits into interval pieces, which give every page and every d_r (Zomorodian
and Carlsson 2005; Basu and Parida 2017).  A reduced column pairs a source
of level p with a target of level p+k; for k >= 1 both live on pages 1..k
and add 1 to the rank of d_k at the source's cell.  The pages are counts:
they pair T with no chains, and name the basis vectors alive in each cell.
Basis vectors left unpaired are cycles: they give E_infinity, and the
classes of those of level >= p span F^p H^n.  The column pairing's own
unpaired cycles of degree n are the basis of H^n both filtrations are
written on (cached on K per n): the column filtration holds their levels
only, and a row cycle gets integer coordinates on them by the same
fraction-free reduction, against the column pairing's targets and unpaired
cycles, which are triangular in the order that pairing used.  So the dims
of a filtration are counts, and two filtrations are compared by counts and
one integer (Bareiss) rank per step.  Filtrations on total cohomology, the
oppositeness test and the dimension criterion implying it live here.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import gcd, inf

from ._record import Record, _set
from .complexes import (CochainComplex, _composite, _pairing, _reduce,
                        _totalize)
from .qlinalg import RatMatrix
from .zlinalg import IntMatrix, _bareiss

COLUMN = "column"
ROW = "row"
MAX_GRID = 64  # largest max_r and max_c a double complex may declare


class DoubleComplexError(ValueError):
    """Raised when a double complex violates its structural invariants."""


class DoubleComplex(Record):
    """Grid K^{r,s} for 0 <= r <= max_r, 0 <= s <= max_c with commuting
    horizontal (r+1) and vertical (s+1) differentials: dims, horiz and vert
    are keyed by cell (r, s), the maps `RatMatrix`es."""

    def __init__(self, max_r: int, max_c: int, dims: dict, horiz: dict,
                 vert: dict):
        _set(self, "max_r", max_r)
        _set(self, "max_c", max_c)
        _set(self, "dims", dims)
        _set(self, "horiz", horiz)
        _set(self, "vert", vert)

    def dim(self, r: int, s: int) -> int:
        return self.dims.get((r, s), 0)

    @cached_property
    def _total(self) -> CochainComplex:
        """Tot, built on the first pairing and shared by every later one."""
        return total_complex(self)

    @cached_property
    def _bases(self) -> dict[int, tuple]:
        """Per degree, the column pairing's basis of H^n, filled by
        `_column_basis`."""
        return {}


def double_complex(max_r: int, max_c: int,
                   dims: dict[tuple[int, int], int],
                   horiz: dict[tuple[int, int], RatMatrix],
                   vert: dict[tuple[int, int], RatMatrix]) -> DoubleComplex:
    """Build and validate a DoubleComplex: shapes, then, cell by cell in
    sorted order, d'd' = 0, d''d'' = 0 and the commuting square, raising the
    first failure.  Each composite is one block product in lowest terms, and
    a square commutes iff its two products are equal values."""
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
    h, v = K.horiz.get, K.vert.get
    for r, s in sorted(dims):
        for what, left, right in (
                ("horiz composite nonzero",
                 _composite(h((r + 1, s)), h((r, s))), None),
                ("vert composite nonzero",
                 _composite(v((r, s + 1)), v((r, s))), None),
                ("square does not commute",
                 _composite(v((r + 1, s)), h((r, s))),
                 _composite(h((r, s + 1)), v((r, s))))):
            if left != right:
                raise DoubleComplexError(f"{what} at ({r},{s})")
    return K


def total_complex(K: DoubleComplex) -> CochainComplex:
    """Totalization T^n = sum_{r+s=n} K^{r,s} with D = d' + (-1)^r d''."""
    return _totalize(0, K.dims, K.horiz, K.vert)


class SpectralPages(Record):
    """All computed pages of one of the two spectral sequences.

    pages[r][(p,q)] = (dim, the indices in T^{p+q} of the dim basis
    vectors of the pairing alive on E_r^{p,q});
    d_ranks[(r,p,q)] = rank of d_r out of (p,q) (zero entries omitted);
    limit[(p,q)] = E_infinity dimension; stable_page = first page equal to
    the limit with all later differentials zero.
    """

    def __init__(self, filtration_axis: str, pages: dict, d_ranks: dict,
                 limit: dict, stable_page: int):
        _set(self, "filtration_axis", filtration_axis)
        _set(self, "pages", pages)
        _set(self, "d_ranks", d_ranks)
        _set(self, "limit", limit)
        _set(self, "stable_page", stable_page)

    def dim(self, r: int, p: int, q: int) -> int:
        cell = self.pages.get(r, {}).get((p, q))
        return cell[0] if cell else 0

    def d_rank(self, r: int, p: int, q: int) -> int:
        return self.d_ranks.get((r, p, q), 0)


class FiltrationChain(Record):
    """Descending filtration F^0 >= ... >= F^{n+1} on H^n, given by a basis
    of H^n adapted to it: class k has level levels[k], and F^p is spanned by
    the classes of level >= p, so nesting holds by construction.  rows[k]
    holds the integer coordinates of class k on one basis of H^n that the
    chains compared share; rows None means class k is that basis vector k.
    The rows must be independent."""

    def __init__(self, n: int, ambient_dim: int, levels: tuple[int, ...],
                 rows: tuple[tuple[int, ...], ...] | None = None):
        _set(self, "n", n)
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "levels", levels)
        _set(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self):
        if len(self.levels) != self.ambient_dim:
            raise ValueError("filtration chain needs one level per class")
        if not all(0 <= level <= self.n for level in self.levels):
            raise ValueError("class levels must lie in [0, n]")
        if self.rows is not None and (
                len(self.rows) != self.ambient_dim
                or any(len(v) != self.ambient_dim for v in self.rows)):
            raise ValueError("filtration chain needs one row per class, "
                             "of ambient_dim coordinates")

    def dims(self) -> tuple[int, ...]:
        return tuple(sum(1 for level in self.levels if level >= p)
                     for p in range(self.n + 2))


def _levels(K: DoubleComplex, axis: str) -> dict[int, list[int]]:
    """Level of each block basis vector of T^n in the filtration by `axis`."""
    if axis not in (COLUMN, ROW):
        raise ValueError(f"axis must be '{COLUMN}' or '{ROW}'")
    levels: dict[int, list[int]] = {}
    for (r, s), d in sorted(K.dims.items()):  # the order of `_totalize`
        levels.setdefault(r + s, []).extend([r if axis == COLUMN else s] * d)
    return levels


def spectral_pages(K: DoubleComplex, axis: str) -> SpectralPages:
    """Pages E_1, E_2, ... of the chosen filtration, with d_r ranks and limit."""
    T = K._total
    # paired one degree past the top, where T is 0: no chains are built
    gens = _pairing(T, _levels(K, axis), T.max_deg + 1)
    last = K.max_r + K.max_c + 1  # beyond this every d_r vanishes (first quadrant)
    pages: dict[int, dict[tuple[int, int], tuple[int, tuple]]] = {}
    for r in range(1, last + 2):
        alive: dict[tuple[int, int], list] = {}
        for g in gens:
            if g.life >= r:
                alive.setdefault((g.level, g.n - g.level), []).append(g.i)
        pages[r] = {pq: (len(ids), tuple(ids)) for pq, ids in alive.items()}
    d_ranks = dict(Counter((g.life, g.level, g.n - g.level) for g in gens
                           if g.source and g.life))
    limit = {pq: dim for pq, (dim, _) in pages[last + 1].items()}
    stable = 1 + max((g.life for g in gens if g.source), default=0)
    return SpectralPages(filtration_axis=axis, pages=pages, d_ranks=d_ranks,
                         limit=limit, stable_page=stable)


def _column_basis(K: DoubleComplex, n: int) -> tuple:
    """(unpaired, order, pivots) of degree n of the column pairing of Tot,
    paired once per degree.  Its unpaired cycles are the basis of H^n that
    both filtrations are written on.  With the degree-n targets they are
    triangular in `order`, the order that pairing used, each one's low its
    own index; `pivots` maps that index to (vector, coordinates), the
    coordinates -e_k on the basis for unpaired cycle k and 0 for a target,
    with a last 0 for the scale of the reduced cycle."""
    if n not in K._bases:
        T, levels = K._total, _levels(K, COLUMN)
        basis = [g for g in _pairing(T, levels, n)
                 if g.n == n and not g.source]
        unpaired = [g for g in basis if g.life == inf]
        at = levels.get(n, [])
        order = sorted(range(T.dim(n)), key=lambda j: (at[j], -j))
        b = len(unpaired)
        pivots = {g.i: (g.chain, [0] * (b + 1)) for g in basis}
        for k, g in enumerate(unpaired):
            pivots[g.i][1][k] = -1
        K._bases[n] = unpaired, order, pivots
    return K._bases[n]


def _classes(K: DoubleComplex, n: int, cycles) -> list[tuple[int, ...]]:
    """Integer coordinates of each cycle of degree n on the column basis of
    H^n, divided by their content: a cycle z reduces to zero against the
    triangular basis of `_column_basis`, leaving s z = sum of coords times
    the unpaired cycles plus boundaries."""
    unpaired, order, pivots = _column_basis(K, n)
    rows = []
    for z in cycles:
        _, (*coords, _), low = _reduce(list(z), [0] * len(unpaired) + [1],
                                       pivots, order)
        if low is not None:
            raise ValueError(f"not a cycle of degree {n}")
        g = gcd(*coords)
        rows.append(tuple(x // g for x in coords) if g > 1 else tuple(coords))
    return rows


def filtration_on_total(K: DoubleComplex, axis: str, n: int) -> FiltrationChain:
    """Filtration F^p H^n(Tot) induced by the chosen axis: F^p is spanned by
    the classes of the unpaired cycles of level >= p, on the column
    pairing's basis of H^n, which on the column axis they are."""
    levels = _levels(K, axis)
    if n < 0 or n > K.max_r + K.max_c:
        return FiltrationChain(max(n, 0), 0, ())
    unpaired = _column_basis(K, n)[0]
    if axis == COLUMN:
        return FiltrationChain(n, len(unpaired),
                               tuple(g.level for g in unpaired))
    cycles = [g for g in _pairing(K._total, levels, n)
              if g.n == n and g.life == inf]
    return FiltrationChain(n, len(unpaired), tuple(g.level for g in cycles),
                           tuple(_classes(K, n, [g.chain for g in cycles])))


def _rank(rows: list[tuple[int, ...]], cols: int) -> int:
    return len(_bareiss(IntMatrix.from_rows(rows, cols))[0])


def _sum_dim(F: FiltrationChain, p: int, G: FiltrationChain, q: int) -> int:
    """dim(F^p + G^q) in H^n.  The classes of each chain are a basis, so a
    step that is 0 or everything decides it by counts; otherwise it is the
    integer rank of the stacked rows.  A chain without rows has unit rows,
    which are not built: they add their count and clear their columns from
    the other chain's rows."""
    h = F.ambient_dim
    f = [k for k, level in enumerate(F.levels) if level >= p]
    g = [k for k, level in enumerate(G.levels) if level >= q]
    if len(f) in (0, h) or len(g) in (0, h):
        return min(h, len(f) + len(g))
    if F.rows is not None:
        F, f, G, g = G, g, F, f
    if F.rows is None and G.rows is None:
        return len(set(f) | set(g))
    if F.rows is None:
        taken = set(f)
        free = [j for j in range(h) if j not in taken]
        return len(f) + _rank([[G.rows[k][j] for j in free] for k in g],
                              len(free))
    return _rank([F.rows[k] for k in f] + [G.rows[k] for k in g], h)


def _same_space(F: FiltrationChain, G: FiltrationChain) -> None:
    if F.n != G.n or F.ambient_dim != G.ambient_dim:
        raise ValueError("filtration degree or ambient dimension mismatch")


def opposite_check(F: FiltrationChain, G: FiltrationChain) -> bool:
    """True iff F^p and G^{n+1-p} are complementary in H^n for every p:
    their dims add up to dim H^n and together they span it."""
    _same_space(F, G)
    n, h = F.n, F.ambient_dim
    f, g = F.dims(), G.dims()
    return all(f[p] + g[n + 1 - p] == h and _sum_dim(F, p, G, n + 1 - p) == h
               for p in range(n + 2))


def dimension_criterion(F: FiltrationChain, G: FiltrationChain) -> bool:
    """Sum condition plus the two dimension symmetries; implies oppositeness."""
    _same_space(F, G)
    n, h = F.n, F.ambient_dim
    f, g = F.dims(), G.dims()
    return (all(f[p] + f[n + 1 - p] == h and g[p] + g[n + 1 - p] == h
                for p in range(n + 2))
            and all(_sum_dim(F, p, G, n + 1 - p) == h for p in range(n + 2)))
