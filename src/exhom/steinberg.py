"""Closed-form Ext / E2 / Betti calculus for quotients of a product of two
Drinfeld symmetric spaces of dimensions d and d'.

The second page of the covering spectral sequence is a four-term sum over
Kunneth pairs (i, j), one term per unitary constituent of the induced
representation, weighted by the multiplicity vector (m10, m01, m11); the
trivial constituent always has multiplicity one.  Ext between generalized
Steinberg tensor factors lives in one degree, the size of the symmetric
difference of their labels (Schneider and Stuhler 1991), so the pair (i, j)
meets the four constituents in degrees i + j, d - i + j, i + d' - j and
d - i + d' - j.  The sum is written once, `_row`, which scatters each pair's
four terms into one sparse row in O(min(d, d')): the grid is every row,
O(d d'), and Betti numbers and filtration dims keep only the anti-diagonals
of rows 0..n.  A separate emitter tabulates the published case-analysis
table side by side with the four-term sum and reports every difference
without judging which is intended; `render_grids` draws its grids and those
of `exhom e2`.
"""

from __future__ import annotations

from itertools import accumulate

from ._record import Record, _set

MAX_SPACE_DIM = 64  # largest d and d' the CLI's e2, betti and filtration take


class InducedSpectrum(Record):
    """Multiplicities of the nontrivial unitary constituents.

    m10: Steinberg (x) trivial, m01: trivial (x) Steinberg,
    m11: Steinberg (x) Steinberg.  The trivial (x) trivial multiplicity is
    always one and is not configurable.
    """

    def __init__(self, m10: int, m01: int, m11: int):
        _set(self, "m10", m10)
        _set(self, "m01", m01)
        _set(self, "m11", m11)
        self.__post_init__()

    def __post_init__(self):
        if min(self.m10, self.m01, self.m11) < 0:
            raise ValueError("multiplicities must be nonnegative")


ZERO_SPECTRUM = InducedSpectrum(0, 0, 0)


def _row(d: int, dp: int, spectrum: InducedSpectrum, s: int) -> dict[int, int]:
    """Row s of the second page as its nonzero cells {r: dim}: each Kunneth
    pair i + j = s, 0 <= i <= d, 0 <= j <= dp, adds one term per unitary
    constituent.  O(min(d, d')) time and memory."""
    if d < 1 or dp < 1:
        raise ValueError("dimensions must be >= 1")
    row: dict[int, int] = {}
    for i in range(max(0, s - dp), min(d, s) + 1):
        j = s - i
        for r, w in ((i + j, 1), (d - i + j, spectrum.m10),
                     (i + dp - j, spectrum.m01), (d - i + dp - j, spectrum.m11)):
            if w:
                row[r] = row.get(r, 0) + w
    return row


class E2Table(Record):
    """Second-page grid over 0 <= r, s <= d + dp."""

    def __init__(self, d: int, dp: int, spectrum: InducedSpectrum,
                 grid: dict[tuple[int, int], int]):
        _set(self, "d", d)
        _set(self, "dp", dp)
        _set(self, "spectrum", spectrum)
        _set(self, "grid", grid)

    def at(self, r: int, s: int) -> int:
        return self.grid.get((r, s), 0)

    @property
    def size(self) -> int:
        return self.d + self.dp


def e2_table(d: int, dp: int, spectrum: InducedSpectrum) -> E2Table:
    """The four-term sum over the supported square."""
    return E2Table(d, dp, spectrum, {
        (r, s): v for s in range(d + dp + 1)
        for r, v in _row(d, dp, spectrum, s).items()})


def _antidiagonals(d: int, dp: int, spectrum: InducedSpectrum, degrees):
    """For each n in degrees, ascending, the cells (r, n - r) for r = 0..n,
    from one pass over the rows of the four-term sum in increasing s.
    Diagonal n is complete, and yielded, once row min(n, d + dp) is read;
    only the nonzero cells of the diagonals not yet yielded are held."""
    held = {n: {} for n in degrees}

    def diagonal(n: int) -> list[int]:
        out = [0] * (n + 1)
        for r, v in held.pop(n).items():
            out[r] = v
        return out

    for s in range(min(max(held), d + dp) + 1):
        for r, v in _row(d, dp, spectrum, s).items():
            if r + s in held:
                held[r + s][r] = v
        if s in held:
            yield diagonal(s)
    yield from map(diagonal, list(held))


def _filtration_dims(diagonal: list[int]) -> list[int]:
    """dim F^i = the sum of diagonal[r] over r >= i, for i = 0..len."""
    return list(accumulate(reversed(diagonal)))[::-1] + [0]


def betti(d: int, dp: int, spectrum: InducedSpectrum, n: int) -> int:
    """Betti number b_n as the anti-diagonal sum of the second page
    (the sequence degenerates there)."""
    if n < 0 or n > 2 * (d + dp):
        return 0
    return sum(next(_antidiagonals(d, dp, spectrum, [n])))


def covering_filtration_dims(d: int, dp: int, spectrum: InducedSpectrum,
                             n: int) -> list[int]:
    """Dims of the covering filtration F^0 >= ... >= F^{n+1} on H^n:
    dim F^i = sum over r >= i of the degree-n anti-diagonal of the grid."""
    if n < 0 or n > 2 * (d + dp):
        raise ValueError(f"degree {n} outside [0, {2 * (d + dp)}]")
    return _filtration_dims(next(_antidiagonals(d, dp, spectrum, [n])))


class BettiProfile(Record):
    """Betti numbers b_0..b_{2(d+dp)} with per-degree filtration dims."""

    def __init__(self, d: int, dp: int, spectrum: InducedSpectrum,
                 b: tuple[int, ...]):
        _set(self, "d", d)
        _set(self, "dp", dp)
        _set(self, "spectrum", spectrum)
        _set(self, "b", b)

    @property
    def filtrations(self) -> tuple[tuple[int, ...], ...]:
        """Every degree's covering-filtration dims, built when asked for."""
        return tuple(tuple(_filtration_dims(v)) for v in _antidiagonals(
            self.d, self.dp, self.spectrum, range(len(self.b))))


def betti_profile(d: int, dp: int, spectrum: InducedSpectrum) -> BettiProfile:
    """b_n as the sum of the degree-n anti-diagonal, for every n."""
    return BettiProfile(d, dp, spectrum, tuple(map(sum, _antidiagonals(
        d, dp, spectrum, range(2 * (d + dp) + 1)))))


def _stated_e2(d: int, dp: int, spectrum: InducedSpectrum,
               r: int, s: int) -> int:
    """The published case-analysis table for even d <= dp."""
    m10, m01, m11 = spectrum.m10, spectrum.m01, spectrum.m11
    half = (d + dp) // 2
    if r == s:
        if r < d // 2:
            return 1
        if d // 2 <= r < dp // 2:
            return m10 + 1
        if r == half:
            return m11 + m10 + m01 + 1
        if r >= dp // 2:
            return m10 + m01 + 1
        return 0
    if r + s == d + dp:
        return m11 + m10 + m01
    if (r + s) % 2 == 0 and d <= r + s < dp:
        return m10
    if (r + s) % 2 == 0 and r + s >= dp:
        return m10 + m01
    return 0


def _stated_betti(d: int, dp: int, spectrum: InducedSpectrum, n: int) -> int:
    """The published closed-form Betti numbers for even d <= dp."""
    m10, m01, m11 = spectrum.m10, spectrum.m01, spectrum.m11
    if n == d + dp:
        return (d + dp + 1) * (m11 + m10 + m01) + 1
    if n < 0 or n > 2 * (d + dp) or n % 2:
        return 0
    if n < d:
        return 1
    if n < dp:
        return (n + 1) * m10 + 1
    if n < d + dp:
        return (n + 1) * (m10 + m01) + 1
    return (2 * d + 2 * dp + 1 - n) * (m10 + m01) + 1


def render_grids(top: int, *lookups) -> list[list[str]]:
    """Each lookup(r, s) over 0 <= r, s <= top as lines: a header of r, then
    one line per s from top down.  One column width fits every cell of every
    grid, so the grids line up and no two cells run together."""
    grids = [[[str(f(r, s)) for r in range(top + 1)]
              for s in range(top, -1, -1)] for f in lookups]
    width = max(3, 1 + max(len(c) for g in grids for row in g for c in row))
    head = "  s\\r " + "".join(str(r).rjust(width) for r in range(top + 1))
    return [[head] + ["  " + str(top - k).rjust(3) + " "
                      + "".join(c.rjust(width) for c in row)
                      for k, row in enumerate(g)] for g in grids]


class PaperTableDiff(Record):
    """Side-by-side comparison of the four-term sum with the published table.

    Makes no judgment of which is correct; cell and Betti differences are
    simply reported.  stated and cell_diffs are keyed by cell (r, s) and
    betti_diffs by degree; a difference is (computed, stated).
    """

    def __init__(self, d: int, dp: int, spectrum: InducedSpectrum,
                 computed: E2Table, stated: dict, cell_diffs: dict,
                 betti_computed: tuple, betti_stated: tuple,
                 betti_diffs: dict):
        _set(self, "d", d)
        _set(self, "dp", dp)
        _set(self, "spectrum", spectrum)
        _set(self, "computed", computed)
        _set(self, "stated", stated)
        _set(self, "cell_diffs", cell_diffs)
        _set(self, "betti_computed", betti_computed)
        _set(self, "betti_stated", betti_stated)
        _set(self, "betti_diffs", betti_diffs)

    def render(self) -> str:
        def stated(r, s):
            return self.stated.get((r, s), 0)

        computed, table, diff = render_grids(
            self.d + self.dp, self.computed.at, stated,
            lambda r, s: self.computed.at(r, s) - stated(r, s))
        lines = [f"second-page comparison  d={self.d} d'={self.dp} "
                 f"m10={self.spectrum.m10} m01={self.spectrum.m01} "
                 f"m11={self.spectrum.m11}",
                 "computed (four-term sum):", *computed,
                 "stated (case table):", *table,
                 "difference (computed - stated):", *diff]
        lines.append("cell differences: "
                     + (", ".join(f"({r},{s}): {c} vs {st}"
                                  for (r, s), (c, st)
                                  in sorted(self.cell_diffs.items()))
                        or "none"))
        lines.append("betti computed: " + " ".join(map(str, self.betti_computed)))
        lines.append("betti stated:   " + " ".join(map(str, self.betti_stated)))
        lines.append("betti differences: "
                     + (", ".join(f"n={n}: {c} vs {st}"
                                  for n, (c, st)
                                  in sorted(self.betti_diffs.items()))
                        or "none"))
        return "\n".join(lines)


def paper_table_diff(d: int, dp: int, spectrum: InducedSpectrum) -> PaperTableDiff:
    """Compare the four-term-sum grid and Betti numbers against the published
    case tables.  Only even d <= dp is accepted: no table is stated otherwise."""
    if d % 2 or dp % 2 or d > dp:
        raise ValueError(
            "no stated table for this case: it requires even d, d' with d <= d'")
    computed = e2_table(d, dp, spectrum)
    top = d + dp
    stated = {}
    cell_diffs = {}
    for r in range(top + 1):
        for s in range(top + 1):
            c, st = computed.at(r, s), _stated_e2(d, dp, spectrum, r, s)
            if st:
                stated[(r, s)] = st
            if c != st:
                cell_diffs[(r, s)] = (c, st)
    bc = betti_profile(d, dp, spectrum).b
    bs = tuple(_stated_betti(d, dp, spectrum, n) for n in range(2 * top + 1))
    betti_diffs = {n: (c, st) for n, (c, st) in enumerate(zip(bc, bs))
                   if c != st}
    return PaperTableDiff(d, dp, spectrum, computed, stated, cell_diffs,
                          bc, bs, betti_diffs)
