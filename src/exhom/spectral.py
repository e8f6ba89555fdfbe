"""First-quadrant double complexes and their two spectral sequences.

A double complex is held as its total complex T^n = sum_{r+s=n} K^{r,s},
blocks by r, D = d' + (-1)^r d'', checked once: D o D = 0, whose blocks
out of cell (r, s) are d'd', d''d'' and (-1)^r (d'd'' - d''d'), at (r+2,
s), (r, s+2) and (r+1, s+1).  F^p T^n is spanned by the block basis
vectors of level >= p by column or by row, levels read off the one pass
over the sorted cells that placed the blocks.  The pages are defined by

    Z_r^{p,q} = F^p T^{p+q}  intersect  D^{-1}(F^{p+r} T^{p+q+1})
    E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + D Z_{r-1}^{p-r+1,q+r-2})

and computed from the persistence pairing of T with these levels (the one
filtered column reduction of `complexes`): over a field a filtered complex
splits into interval pieces, which give every page and every d_r (Zomorodian
and Carlsson 2005; Basu and Parida 2017).  A reduced column pairs a source
of level p with a target of level p+k; for k >= 1 both live on pages 1..k
and add 1 to the rank of d_k at the source's cell.  The pages count, with
no chain built, the basis vectors alive in each cell, filled from the stable
page (above every finite life; later pages share its dict) down.
Basis vectors left unpaired are cycles: they give E_infinity, and the
classes of those of level >= p span F^p H^n.  The column pairing's own
unpaired cycles of degree n are the basis of H^n both filtrations are
written on (`_column_basis`, cached on K per n): the column filtration
holds their levels only, and `filtration_on_total` gives a row cycle sparse
integer coordinates on them by the same fraction-free reduction, against
the column pairing's targets and unpaired cycles, which are triangular in
the order that pairing used.  So the dims of a filtration are counts, and
two are compared by their relative position dim Gr_F^p Gr_G^q H^n, from
one more such reduction: they are opposite iff it vanishes off p + q = n
(Deligne).  Filtrations on total cohomology, the oppositeness test and the
dimension criterion implying it live here.
"""

from math import gcd, inf

from ._record import Record, cached
from .complexes import (_composites, _nonzero_composite, _order, _pairing,
                        _place, _reduce, _totalize)
from .qlinalg import RatMatrix

COLUMN = "column"
ROW = "row"
MAX_GRID = 64  # largest max_r and max_c a double complex may declare


class DoubleComplexError(ValueError):
    """Raised when a double complex violates its structural invariants."""


class DoubleComplex(Record):
    """Nonzero cells `dims` of K^{r,s}, r <= max_r, s <= max_c, held as T."""

    _fields = ("max_r", "max_c", "dims", "total")

    @cached
    def _axis_levels(self) -> dict[str, dict[int, list[int]]]:
        """Per axis, `_place`'s levels, primed by the parser's own pass."""
        return dict(zip((COLUMN, ROW), _place(self.dims)[1:]))

    @cached
    def _bases(self) -> dict[int, tuple]:
        """Per degree, the column pairing's basis of H^n (`_column_basis`)."""
        return {}


def _check_grid(max_r: int, max_c: int, dims, error=DoubleComplexError):
    if max_r < 0 or max_c < 0:
        raise error(f"max_r and max_c must be >= 0, got {max_r} and {max_c}")
    if max_r > MAX_GRID or max_c > MAX_GRID:
        raise error(f"max_r and max_c must be at most {MAX_GRID}, got {max_r} "
                    f"and {max_c}")
    for (r, s) in dims:
        if not (0 <= r <= max_r and 0 <= s <= max_c):
            raise error(f"cell ({r},{s}) outside declared rectangle")


_DEFECTS = {2: "horiz composite nonzero", 0: "vert composite nonzero",
            1: "square does not commute"}


def _checked(K: DoubleComplex, error=DoubleComplexError) -> DoubleComplex:
    """K, if D o D = 0 on Tot; else raise `error` naming the first failure
    by the step in r of D D's block: cells sorted, then `_DEFECTS`' order."""
    if _nonzero_composite(K.total) is None:
        return K
    level, rank = _levels(K, COLUMN), list(_DEFECTS)
    r, s, kind = min((level[n][j], n - level[n][j],
                      rank.index(level[n + 2][i] - level[n][j]))
                     for n, j, col in _composites(K.total) for i in col)
    raise error(f"{_DEFECTS[rank[kind]]} at ({r},{s})")


def double_complex(max_r: int, max_c: int,
                   dims: dict[tuple[int, int], int],
                   horiz: dict[tuple[int, int], RatMatrix],
                   vert: dict[tuple[int, int], RatMatrix]) -> DoubleComplex:
    """Build and validate a DoubleComplex from its horizontal (to r+1) and
    vertical (to s+1) blocks by source cell: grid, shapes, then D o D = 0."""
    dims = {c: d for c, d in dims.items() if d > 0}
    _check_grid(max_r, max_c, dims)
    for name, maps, dr, ds in (("horiz", horiz, 1, 0), ("vert", vert, 0, 1)):
        for (r, s), M in maps.items():
            want = (dims.get((r + dr, s + ds), 0), dims.get((r, s), 0))
            if M.rows and M.cols and (M.rows, M.cols) != want:
                raise DoubleComplexError(
                    f"{name} at ({r},{s}) has shape {M.rows}x{M.cols}, "
                    f"expected {want[0]}x{want[1]}")
    return _checked(DoubleComplex(max_r, max_c, dims,
                                  _totalize(0, dims, horiz, vert)))


class SpectralPages(Record):
    """All computed pages of one of the two spectral sequences.

    pages[r][(p,q)] = (dim, the indices in T^{p+q} of the dim basis
    vectors of the pairing alive on E_r^{p,q});
    d_ranks[(r,p,q)] = rank of d_r out of (p,q) (zero entries omitted);
    limit[(p,q)] = E_infinity dimension; stable_page = first page equal to
    the limit with all later differentials zero: pages[r] is
    pages[stable_page] for every stored r after it, and `dim` reads E_r
    past the last stored page as E_infinity too.
    """

    _fields = ("filtration_axis", "pages", "d_ranks", "limit", "stable_page")

    def dim(self, r: int, p: int, q: int) -> int:
        cell = self.pages.get(min(r, self.stable_page), {}).get((p, q))
        return cell[0] if cell else 0


class FiltrationChain(Record):
    """Descending filtration F^0 >= ... >= F^{n+1} on H^n, given by a basis
    of H^n adapted to it: class k has level levels[k], and F^p is spanned by
    the classes of level >= p, so nesting holds by construction.  rows[k]
    holds the integer coordinates of class k on one basis of H^n that the
    chains compared share, as {index: nonzero coordinate}; rows None means
    class k is that basis vector k.  Dependent rows are refused too."""

    _fields, _defaults = ("n", "ambient_dim", "levels", "rows"), (None,)

    def __post_init__(self):
        if len(self.levels) != self.ambient_dim:
            raise ValueError("filtration chain needs one level per class")
        if not all(0 <= level <= self.n for level in self.levels):
            raise ValueError("class levels must lie in [0, n]")
        if self.rows is not None and (
                len(self.rows) != self.ambient_dim
                or not all(0 <= j < self.ambient_dim and x
                           for v in self.rows for j, x in v.items())):
            raise ValueError("filtration chain needs one row per class, "
                             "of nonzero coordinates below ambient_dim")

    def dims(self) -> tuple[int, ...]:
        return tuple(sum(map(p.__le__, self.levels))
                     for p in range(self.n + 2))


def _levels(K: DoubleComplex, axis: str) -> dict[int, list[int]]:
    """Level of each block basis vector of T^n in the filtration by `axis`."""
    if axis not in (COLUMN, ROW):
        raise ValueError(f"axis must be '{COLUMN}' or '{ROW}'")
    return K._axis_levels[axis]


def spectral_pages(K: DoubleComplex, axis: str) -> SpectralPages:
    """Pages E_1, E_2, ... of the chosen filtration, with d_r ranks and limit."""
    T = K.total
    # paired one degree past the top, where T is 0: no chains are built
    gens = _pairing(T, _levels(K, axis), T.max_deg + 1)
    last = K.max_r + K.max_c + 1  # beyond this every d_r vanishes (first quadrant)
    # each id under its life (inf: stable) and cell; a cell's ids ascending
    born, d_ranks, stable = {}, {}, 1
    for n, i, p, life, source, _ in gens:
        if life:
            if source:
                d_ranks[life, p, n - p] = d_ranks.get((life, p, n - p), 0) + 1
                stable = max(stable, life + 1)
            born.setdefault(life, {}).setdefault((p, n - p), []).append(i)
    pages, page = {}, {}
    for r in range(stable, 0, -1):
        page = pages[r] = page.copy()
        for pq, ids in born.get(r if r < stable else inf, {}).items():
            ids = sorted(page[pq][1] + tuple(ids)) if pq in page else ids
            page[pq] = len(ids), tuple(ids)
    pages.update(dict.fromkeys(range(stable + 1, last + 2), pages[stable]))
    limit = {pq: dim for pq, (dim, _) in pages[stable].items()}
    return SpectralPages(axis, pages, d_ranks, limit, stable)


def _column_basis(K: DoubleComplex, n: int) -> tuple:
    """(unpaired, ranks, pivots) of degree n of the column pairing of Tot,
    paired once per degree.  Its unpaired cycles are the basis of H^n that
    both filtrations are written on.  With the degree-n targets they are
    triangular by `ranks`, the order that pairing used, each one's low its
    own index; `pivots` maps that index to (vector, coordinates), the
    coordinates {k: -1} on the basis for unpaired cycle k and {} for a
    target."""
    if n not in K._bases:
        T, levels = K.total, _levels(K, COLUMN)
        basis = [g for g in _pairing(T, levels, n)
                 if g.n == n and not g.source]
        unpaired = [g for g in basis if g.life == inf]
        pivots = {g.i: (g.chain, {}) for g in basis}
        for k, g in enumerate(unpaired):
            pivots[g.i] = g.chain, {k: -1}
        order = _order(levels.get(n, []))
        K._bases[n] = unpaired, dict(zip(order, range(len(order)))), pivots
    return K._bases[n]


def filtration_on_total(K: DoubleComplex, axis: str, n: int) -> FiltrationChain:
    """Filtration F^p H^n(Tot) induced by the chosen axis: F^p is spanned by
    the classes of the unpaired cycles of level >= p, on the column
    pairing's basis of H^n, which on the column axis they are; a row
    cycle's coordinates on it are divided by their content."""
    levels = None if axis == COLUMN else _levels(K, axis)  # checks axis
    if n < 0 or n > K.max_r + K.max_c:
        return FiltrationChain(max(n, 0), 0, ())
    unpaired, ranks, pivots = _column_basis(K, n)
    b = len(unpaired)
    if axis == COLUMN:
        return FiltrationChain(n, b, tuple(g.level for g in unpaired))
    cycles = [g for g in _pairing(K.total, levels, n)
              if g.n == n and g.life == inf]
    rows = []
    for g in cycles:  # its chain z reduces to zero against that basis:
        # s z = sum of coords times the unpaired cycles plus boundaries
        coords = _reduce(g.chain, {b: 1}, pivots, ranks)[1]
        del coords[b]  # the scale s
        c = gcd(*coords.values())
        rows.append({k: x // c for k, x in coords.items()})
    return FiltrationChain(n, b, tuple(g.level for g in cycles), tuple(rows))


def _relative_position(F: FiltrationChain, G: FiltrationChain) -> dict:
    """{(p, q): dim Gr_F^p Gr_G^q H^n}.  F's rows (unit rows where a chain
    has none) reduce to pivots keeping their combinations of F's classes,
    against which G's rows reduce to zero: that writes them on F's classes.
    Reduced again in G-level descending order, ranked by `_order(F.levels)`,
    each has its coordinate of least F-level as its low, and counts once at
    (that level, its G-level).  Dependent rows of either chain leave one of
    these without a low: refused."""
    if F.n != G.n or F.ambient_dim != G.ambient_dim:
        raise ValueError("filtration degree or ambient dimension mismatch")
    h = F.ambient_dim
    units = [{k: 1} for k in range(h)]
    pivots, table = {}, {}
    for v, chain in zip(F.rows or units, units):
        v, chain, low = _reduce(v, chain, pivots, range(h))
        pivots[low] = v, chain
    on_f = [_reduce(v, {}, pivots, range(h))[1] for v in G.rows or units]
    pivots, ranks = {}, dict(zip(_order(F.levels), range(h)))
    for j in _order(G.levels):
        v, _, low = _reduce(on_f[j], {}, pivots, ranks)
        if low is None:
            raise ValueError("filtration chain rows must be independent")
        pivots[low] = v, {}
        pq = F.levels[low], G.levels[j]
        table[pq] = table.get(pq, 0) + 1
    return table


def _verdicts(F: FiltrationChain, G: FiltrationChain) -> tuple[bool, bool]:
    """(`opposite_check`, `dimension_criterion`) of F and G, read off one
    `_relative_position`: F^p + G^q is the span of the classes at (p', q')
    with p' >= p or q' >= q, so every F^p + G^{n+1-p} is H^n iff no class
    has p' + q' < n."""
    n, h = F.n, F.ambient_dim
    f, g, ps = F.dims(), G.dims(), range(n + 2)
    spanned = all(p + q >= n for p, q in _relative_position(F, G))
    sums = all(f[p] + g[n + 1 - p] == h for p in ps)
    symmetric = all(f[p] + f[n + 1 - p] == h and g[p] + g[n + 1 - p] == h
                    for p in ps)
    return sums and spanned, symmetric and spanned


def opposite_check(F: FiltrationChain, G: FiltrationChain) -> bool:
    """True iff F^p and G^{n+1-p} are complementary in H^n for every p; by
    Deligne (Hodge II, 1.2), iff Gr_F^p Gr_G^q H^n = 0 off p + q = n."""
    return _verdicts(F, G)[0]


def dimension_criterion(F: FiltrationChain, G: FiltrationChain) -> bool:
    """Sum condition plus the two dimension symmetries; implies oppositeness."""
    return _verdicts(F, G)[1]
