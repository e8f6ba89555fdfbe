import random
from collections import Counter

import pytest

from conftest import (
    Blocks,
    blocks,
    degenerates_at,
    deligne_opposite,
    dense,
    filtration_spaces,
    naive_composite,
    num_rows,
    rank,
    random_dense_cochain,
    random_double_complex,
    random_zigzag_double_complex,
    recount_pages,
    reference_criterion,
    reference_defects,
    reference_opposite,
    reference_pages,
    reference_read,
    reference_ss_text,
    reference_total,
    rescale_cells,
    serialize_double_complex,
    to_sparse,
)
from exhom import spectral
from exhom.cli import main
from exhom.complexes import (_nonzero_composite, cohomology_dims,
                             int_chain_complex, uct_check, validate_complex)
from exhom.documents import parse_double_complex_document
from exhom.qlinalg import RatMatrix
from exhom.spectral import (
    COLUMN,
    ROW,
    DoubleComplexError,
    FiltrationChain,
    dimension_criterion,
    double_complex,
    filtration_on_total,
    opposite_check,
    spectral_pages,
)

ID1 = RatMatrix.identity(1)


def one_cell():
    return double_complex(0, 0, {(0, 0): 1}, {}, {})


def identity_square():
    return double_complex(1, 1,
                          {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                          {(0, 0): ID1, (0, 1): ID1},
                          {(0, 0): ID1, (1, 0): ID1})


def knight_move():
    """One nonzero transgression: E2 cells at (0,1) and (2,0) killed by d2."""
    return double_complex(2, 1,
                          {(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1},
                          {(0, 1): ID1, (1, 0): ID1},
                          {(1, 0): ID1})


def test_total_one_cell():
    T = one_cell().total
    assert T.dim(0) == 1 and T.dim(1) == 0
    assert cohomology_dims(T) == {0: 1}


def test_total_horizontal_arrow():
    K = double_complex(1, 0, {(0, 0): 1, (1, 0): 1}, {(0, 0): ID1}, {})
    T = K.total
    assert cohomology_dims(T) == {0: 0, 1: 0}


def test_total_identity_square_needs_sign():
    T = identity_square().total
    assert validate_complex(T)
    assert all(v == 0 for v in cohomology_dims(T).values())


def test_invalid_square_reported_with_cell():
    with pytest.raises(DoubleComplexError, match=r"\(0,0\)"):
        double_complex(1, 1,
                       {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                       {(0, 0): ID1, (0, 1): ID1},
                       {(0, 0): ID1, (1, 0): RatMatrix.from_rows([[2]])})


def _plant_defects(rng, K, count):
    """K's horiz and vert maps with `count` planted changes, each to a
    random stored map: one entry moved by +-1, or the whole map doubled
    (which can break only squares)."""
    B = blocks(K)
    maps = {"horiz": dict(B.horiz), "vert": dict(B.vert)}
    for _ in range(count):
        field = rng.choice([f for f in maps if maps[f]])
        cell = rng.choice(sorted(maps[field]))
        M = maps[field][cell]
        nums = [x for row in num_rows(M) for x in row]
        if rng.random() < 0.3:
            nums = [2 * x for x in nums]
        else:
            nums[rng.randrange(len(nums))] += rng.choice((-1, 1)) * M.den
        maps[field][cell] = dense(M.rows, M.cols, tuple(nums), M.den)
    return maps["horiz"], maps["vert"]


def test_double_complex_names_the_first_defect_like_the_per_cell_checks():
    """The cell-by-cell checks raise, byte for byte, the message of the
    first failure the reference per-cell checks find: cells sorted and,
    within a cell, horiz, vert, square."""
    rng = random.Random(61)
    seen = Counter()
    for trial in range(400):
        K = (random_double_complex(rng) if trial % 2
             else random_zigzag_double_complex(rng, grid=3, pieces=5)[0])
        if not K.total.differentials:
            continue
        horiz, vert = _plant_defects(rng, K, 1 + trial % 3)
        want = reference_defects(
            Blocks(K.max_r, K.max_c, K.dims, horiz, vert))
        if not want:
            double_complex(K.max_r, K.max_c, K.dims, horiz, vert)
            continue
        with pytest.raises(DoubleComplexError) as raised:
            double_complex(K.max_r, K.max_c, K.dims, horiz, vert)
        assert str(raised.value) == want[0]
        cells = Counter(m.split(" at ")[1] for m in want)
        if len(want) == 1:
            seen["only " + want[0].split()[0]] += 1
        seen["several cells"] += len(cells) > 1
        seen["several kinds in the first cell"] += cells[
            want[0].split(" at ")[1]] > 1
    assert all(seen[k] for k in (
        "only horiz", "only vert", "only square", "several cells",
        "several kinds in the first cell")), seen


def test_cell_checks_over_coprime_cell_denominators_name_the_first_defect():
    """Zigzags whose cells carry coprime prime scales, so a square's two
    paths are products over different denominators: the cell checks accept
    them, and with defects planted name the first failure as the reference
    checks on `RatMatrix` products do."""
    rng = random.Random(73)
    rejected = 0
    for trial in range(120):
        K = rescale_cells(random_zigzag_double_complex(rng, grid=3,
                                                       pieces=5)[0], rng)
        if not K.total.differentials:
            continue
        assert reference_defects(blocks(K)) == []
        horiz, vert = _plant_defects(rng, K, 1 + trial % 3)
        want = reference_defects(
            Blocks(K.max_r, K.max_c, K.dims, horiz, vert))
        if not want:
            double_complex(K.max_r, K.max_c, K.dims, horiz, vert)
            continue
        with pytest.raises(DoubleComplexError) as raised:
            double_complex(K.max_r, K.max_c, K.dims, horiz, vert)
        assert str(raised.value) == want[0]
        rejected += 1
    assert rejected >= 20


def test_large_double_complex_names_the_first_defect_like_naive_checks():
    """A zigzag complex whose Tot products would run past 2^14
    multiplications, with cells of different denominators: the cell checks
    on block numerators accept it, and with defects planted they name the
    first as the reference checks do on textbook triple-loop products."""
    rng = random.Random(67)
    K = random_zigzag_double_complex(rng, grid=3, pieces=300)[0]
    T, B = K.total, blocks(K)
    assert max(T.dim(n + 2) * T.dim(n + 1) * T.dim(n)
               for n in T.differentials) >= 1 << 14
    assert len({M.den for M in (*B.horiz.values(), *B.vert.values())}) > 5
    double_complex(K.max_r, K.max_c, K.dims, B.horiz, B.vert)
    for count in (1, 2, 3):
        horiz, vert = _plant_defects(rng, K, count)
        want = reference_defects(
            Blocks(K.max_r, K.max_c, K.dims, horiz, vert),
            naive_composite)
        assert want
        with pytest.raises(DoubleComplexError) as raised:
            double_complex(K.max_r, K.max_c, K.dims, horiz, vert)
        assert str(raised.value) == want[0]


def test_cell_checks_accept_exactly_when_tot_squares_to_zero():
    """The cell-by-cell checks against the one D o D = 0 check on Tot they
    replaced: with 0-3 defects planted, in small complexes and in the
    122-dimensional zigzag whose cells have many denominators, a complex is
    accepted exactly when D o D = 0 on its Tot."""
    rng = random.Random(71)
    big = random_zigzag_double_complex(random.Random(67), grid=3,
                                       pieces=300)[0]
    assert sum(big.dims.values()) == 122
    seen = Counter()
    for trial in range(240):
        K = (big if trial % 8 == 0 else random_double_complex(rng)
             if trial % 2 else
             random_zigzag_double_complex(rng, grid=3, pieces=5)[0])
        count = rng.randrange(4) if K.total.differentials else 0
        B = blocks(K)
        horiz, vert = (_plant_defects(rng, K, count) if count
                       else (B.horiz, B.vert))
        tot_ok = _nonzero_composite(reference_total(
            Blocks(K.max_r, K.max_c, K.dims, horiz, vert))) is None
        try:
            double_complex(K.max_r, K.max_c, K.dims, horiz, vert)
            accepted = True
        except DoubleComplexError:
            accepted = False
        assert accepted == tot_ok
        seen[K is big, count > 0, accepted] += 1
    assert all(seen[big_, planted, ok]
               for big_ in (False, True) for planted, ok in
               ((False, True), (True, True), (True, False))), seen


def test_parsing_builds_tot_once_and_every_pairing_shares_it(
        monkeypatch, tmp_path, capsys):
    """Parsing a valid document writes Tot itself, equal to the blocks'
    totalization, with no `_totalize` call; every pairing of the complex,
    in the library and in an `ss` or `oppose` request, pairs that one Tot."""
    text = serialize_double_complex(random_zigzag_double_complex(
        random.Random(41), grid=3, pieces=12)[0])
    want = reference_total(reference_read(text))
    totalized, paired = [], []
    monkeypatch.setattr(spectral, "_totalize",
                        lambda *a: totalized.append(a))
    real = spectral._pairing
    monkeypatch.setattr(spectral, "_pairing",
                        lambda T, *a: paired.append(T) or real(T, *a))
    K = parse_double_complex_document(text)
    assert K.total == want and totalized == []
    spectral_pages(K, COLUMN)
    spectral_pages(K, ROW)
    filtration_on_total(K, ROW, 3)
    assert len(paired) == 4 and all(T is K.total for T in paired)
    f = tmp_path / "k.json"
    f.write_text(text)
    for argv in (["ss", "--axis", "row", "--pages"], ["oppose", "--n", "3"]):
        paired.clear()
        assert main([*argv, "--input", str(f)]) == 0
        assert capsys.readouterr().err == ""
        assert len(paired) >= 1 and len(set(map(id, paired))) == 1
    assert totalized == []


def test_ss_text_matches_the_per_cell_renderer(tmp_path, capsys):
    """`exhom ss` prints, byte for byte, the cell-by-cell rendering of pages
    recounted one by one, with and without --pages and on both axes, also
    on cells of many denominators.  The pages from the stable one on are
    one dict, and every page's dims are its own recount."""
    rng = random.Random(83)
    many_dens = random_zigzag_double_complex(random.Random(67), grid=3,
                                             pieces=300)[0]
    B = blocks(many_dens)
    assert len({M.den for M in (*B.horiz.values(), *B.vert.values())}) > 5
    Ks = [many_dens] + [random_double_complex(rng) for _ in range(4)] + [
        random_zigzag_double_complex(rng, grid=rng.randint(1, 4), pieces=8,
                                     corners=rng.randint(0, 2))[0]
        for _ in range(12)]
    f = tmp_path / "k.json"
    stables = Counter()
    for K in Ks:
        f.write_text(serialize_double_complex(K))
        for axis, name in ((COLUMN, "col"), (ROW, "row")):
            P = spectral_pages(K, axis)
            grids, stable = recount_pages(K, axis)
            assert P.stable_page == stable and P.pages.keys() == grids.keys()
            for r, page in P.pages.items():
                assert (page is P.pages[stable]) == (r >= stable)
                assert {pq: d for pq, (d, _) in page.items()} == grids[r]
            stables[stable] += 1
            for flag in ((), ("--pages",)):
                assert main(["ss", "--input", str(f), "--axis", name,
                             *flag]) == 0
                assert capsys.readouterr() == (
                    reference_ss_text(K, axis, bool(flag)), "")
    assert len(stables) >= 3, stables


def test_pages_equal_the_per_page_scan():
    """spectral_pages sorts the generators into buckets once and fills the
    pages from the stable one down: every field, each cell's ids in their
    order among them, equals the per-page rescan it replaced, and the same
    pages share the stable page's dict."""
    rng = random.Random(29)
    Ks = [random_double_complex(rng) for _ in range(6)] + [
        random_zigzag_double_complex(rng, grid=rng.randint(1, 4),
                                     pieces=rng.randint(1, 14),
                                     corners=rng.randint(0, 2))[0]
        for _ in range(30)]
    stables = Counter()
    for K in Ks:
        for axis in (COLUMN, ROW):
            P, R = spectral_pages(K, axis), reference_pages(K, axis)
            assert P == R
            assert {r: P.pages[r] is P.pages[P.stable_page] for r in P.pages} \
                == {r: R.pages[r] is R.pages[R.stable_page] for r in R.pages}
            stables[P.stable_page] += 1
    assert len(stables) >= 3, stables


def test_pages_zero_differentials():
    K = double_complex(1, 1, {(0, 0): 2, (1, 1): 1, (0, 1): 1}, {}, {})
    P = spectral_pages(K, COLUMN)
    assert {pq: d for pq, (d, _) in P.pages[2].items()} \
        == {(0, 0): 2, (1, 1): 1, (0, 1): 1}
    assert P.limit == {(0, 0): 2, (1, 1): 1, (0, 1): 1}
    assert P.stable_page == 1
    assert degenerates_at(P, 1)


def test_dim_reads_the_limit_past_the_last_stored_page():
    """E_r = E_infinity from the stable page on, so `dim` reads the limit at
    every later r, also past the last stored page, max_r + max_c + 2."""
    K = double_complex(1, 1, {(0, 0): 1, (0, 1): 1, (1, 1): 1},
                       {(0, 1): ID1}, {})
    for axis in (COLUMN, ROW):
        P = spectral_pages(K, axis)
        assert max(P.pages) == 4 and P.limit == {(0, 0): 1}
        for r in (P.stable_page, 4, 5, 50):
            assert [P.dim(r, p, q) for p in range(2) for q in range(2)] \
                == [1, 0, 0, 0]


def test_row_sequence_degenerates_when_horiz_vanishes():
    rng = random.Random(21)
    for _ in range(10):
        C = random_dense_cochain(rng, max_deg=2, max_pieces=3)
        dims = {(r, s): C.dim(s) for r in range(2) for s in C.degrees()}
        vert = {(r, s): D for r in range(2)
                for s, D in C.differentials.items()}
        K = double_complex(1, C.max_deg, dims, {}, vert)
        P = spectral_pages(K, ROW)
        assert degenerates_at(P, 2)


def test_identity_square_pages_vanish():
    for axis in (COLUMN, ROW):
        P = spectral_pages(identity_square(), axis)
        assert P.pages[2] == {}
        assert P.limit == {}


def test_column_e1_is_vertical_cohomology():
    rng = random.Random(22)
    for _ in range(8):
        K = random_double_complex(rng, max_r=2, max_c=2)
        P, vert = spectral_pages(K, COLUMN), blocks(K).vert
        for p in range(K.max_r + 1):
            col = {s: K.dims.get((p, s), 0) for s in range(K.max_c + 1)}
            from exhom.complexes import cochain_complex
            C = cochain_complex(0, col,
                                {s: vert[(p, s)] for s in range(K.max_c)
                                 if (p, s) in vert})
            for q in range(K.max_c + 1):
                assert P.dim(1, p, q) == cohomology_dims(C).get(q, 0)


def test_knight_move_transgression():
    P = spectral_pages(knight_move(), COLUMN)
    assert {pq: d for pq, (d, _) in P.pages[2].items()} \
        == {(0, 1): 1, (2, 0): 1}
    assert P.d_ranks == {(2, 0, 1): 1}
    assert not degenerates_at(P, 2)
    assert degenerates_at(P, 3)
    assert P.limit == {}
    assert P.stable_page == 3


def test_convergence_and_bookkeeping_random():
    rng = random.Random(23)
    for _ in range(10):
        K = random_double_complex(rng)
        H = cohomology_dims(K.total)
        for axis in (COLUMN, ROW):
            P = spectral_pages(K, axis)
            for n in range(K.max_r + K.max_c + 1):
                assert sum(d for (p, q), d in P.limit.items() if p + q == n) \
                    == H.get(n, 0)
            pages = sorted(P.pages)
            for r in pages[:-1]:
                for (p, q) in set(P.pages[r]) | set(P.pages[r + 1]):
                    assert P.dim(r + 1, p, q) == P.dim(r, p, q) \
                        - P.d_ranks.get((r, p, q), 0) \
                        - P.d_ranks.get((r, p - r, q + r - 1), 0)


def test_both_axes_agree_on_antidiagonals():
    rng = random.Random(24)
    for _ in range(6):
        K = random_double_complex(rng, max_r=2, max_c=2)
        Pc = spectral_pages(K, COLUMN)
        Pr = spectral_pages(K, ROW)
        for n in range(K.max_r + K.max_c + 1):
            assert sum(d for (p, q), d in Pc.limit.items() if p + q == n) \
                == sum(d for (p, q), d in Pr.limit.items() if p + q == n)


def test_filtration_single_cell():
    F = filtration_on_total(one_cell(), COLUMN, 0)
    assert F.dims() == (1, 0)


def test_filtration_column_zero_only():
    K = double_complex(1, 2, {(0, 0): 1, (0, 1): 2, (0, 2): 1}, {}, {})
    for n in range(3):
        F = filtration_on_total(K, COLUMN, n)
        assert F.dims()[0] == K.dims.get((0, n), 0)
        assert all(d == 0 for d in F.dims()[1:])


def test_filtration_graded_pieces_match_limit():
    rng = random.Random(25)
    for _ in range(6):
        K = random_double_complex(rng, max_r=2, max_c=2)
        for axis in (COLUMN, ROW):
            P = spectral_pages(K, axis)
            for n in range(K.max_r + K.max_c + 1):
                F = filtration_on_total(K, axis, n)
                dims = F.dims()
                assert all(a >= b for a, b in zip(dims, dims[1:]))
                for p in range(n + 1):
                    assert dims[p] - dims[p + 1] == P.limit.get((p, n - p), 0)


def _flag(rng, n, dims):
    """Random filtration chain on Q^b with the given step dims: the rows of
    a random invertible matrix, row k spanning F^p for every p with
    k < dims[p]."""
    b = dims[0]
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(b)] for _ in range(b)]
        if rank(RatMatrix.from_rows(rows, b)) == b:
            break
    levels = tuple(sum(1 for d in dims[1:] if d > k) for k in range(b))
    return FiltrationChain(n, b, levels, tuple(map(to_sparse, rows)))


def test_opposite_simple():
    F = FiltrationChain(1, 2, (1, 0))  # F^1 = <e_0>, unit rows
    G = FiltrationChain(1, 2, (0, 1), ({0: 1}, {1: 1}))  # G^1 = <e_1>
    assert opposite_check(F, G)
    assert not opposite_check(F, F)
    assert dimension_criterion(F, G)


def test_dimension_criterion_implies_opposite_random():
    rng = random.Random(26)
    found = 0
    while found < 30:
        n = rng.randint(1, 3)
        b = rng.randint(1, 5)
        # symmetric dim profile: dims[i] + dims[n+1-i] = b
        half = [b] + sorted((rng.randint(0, b) for _ in range((n + 1) // 2)),
                            reverse=True)
        dims = list(half)
        while len(dims) < n + 2:
            dims.append(b - dims[n + 1 - len(dims)])
        dims[-1] = 0
        dims = [max(d, 0) for d in dims]
        if any(a < b_ for a, b_ in zip(dims, dims[1:])):
            continue
        if any(dims[i] + dims[n + 1 - i] != b for i in range(n + 2)):
            continue
        F = _flag(rng, n, dims)
        G = _flag(rng, n, dims)
        assert opposite_check(F, G) == deligne_opposite(F, G)
        if dimension_criterion(F, G):
            found += 1
            assert opposite_check(F, G)


def test_dimension_criterion_rejects_violations():
    # same middle space: sum condition fails
    F = FiltrationChain(1, 2, (1, 0))
    assert not dimension_criterion(F, F)
    # asymmetric dims
    G = FiltrationChain(1, 2, (0, 0))
    assert not dimension_criterion(F, G)


def test_opposite_mismatch_raises():
    F = FiltrationChain(1, 2, (1, 0))
    H = FiltrationChain(2, 2, (2, 0))
    with pytest.raises(ValueError):
        opposite_check(F, H)


@pytest.mark.parametrize("call, message", [
    (lambda: uct_check(int_chain_complex(0, {0: 1}, {}), 1),
     "modulus must be >= 2"),
    (lambda: spectral_pages(one_cell(), "diag"),
     "axis must be 'column' or 'row'"),
    (lambda: RatMatrix.identity(2) @ RatMatrix.identity(3),
     "shape mismatch 2x2 @ 3x3"),
    (lambda: double_complex(0, 1, {(0, 0): 1, (0, 1): 1}, {},
                            {(0, 0): RatMatrix.identity(2)}),
     "vert at (0,0) has shape 2x2, expected 1x1"),
    (lambda: opposite_check(FiltrationChain(1, 2, (1, 0)), FiltrationChain(
        1, 2, (0, 1), ({0: 0}, {1: 1}))),
     "filtration chain needs one row per class, of nonzero coordinates "
     "below ambient_dim"),
    (lambda: opposite_check(FiltrationChain(1, 2, (1, 0)), FiltrationChain(
        1, 2, (0, 1), ({0: 1}, {0: 2}))),
     "filtration chain rows must be independent"),
])
def test_library_refusals_are_pinned(call, message):
    with pytest.raises(ValueError) as refusal:
        call()
    assert str(refusal.value) == message


def test_filtration_counts_and_ranks_match_the_subspace_reference():
    """300 zigzag double complexes on grids 2-5, most with corners (classes
    spread over two cells of different levels), every n in range and one
    outside it, every ordered pair of the two axes' filtrations: the dims
    are the known ones and those of the reference spans of each step, and
    `opposite_check` and `dimension_criterion` give the verdicts of the
    rational subspace algebra, and `opposite_check` that of Deligne's
    criterion on the relative position, whose margins are the graded dims.
    Each verdict occurs both true and false."""
    rng = random.Random(61)
    seen = Counter()
    for _ in range(300):
        grid = rng.randint(2, 5)
        K, Z = random_zigzag_double_complex(rng, grid=grid,
                                            pieces=rng.randint(4, 14),
                                            corners=rng.randint(0, 3))
        for axis in (COLUMN, ROW):
            assert spectral_pages(K, axis).limit \
                == Z.page_dims(axis, 2 * grid + 2)
        for n in [*range(2 * grid + 1), rng.choice((-1, 2 * grid + 1))]:
            chains = [filtration_on_total(K, axis, n) for axis in (COLUMN, ROW)]
            for F, axis in zip(chains, (COLUMN, ROW)):
                known = Z.filtration_dims(axis, n) if n >= 0 else (0, 0)
                assert F.dims() == known \
                    == tuple(S.dim for S in filtration_spaces(F))
            for F in chains:
                for G in chains:
                    got = (opposite_check(F, G), dimension_criterion(F, G))
                    assert got == (reference_opposite(F, G),
                                   reference_criterion(F, G))
                    assert got[0] == deligne_opposite(F, G)
                    seen.update(zip(("opposite", "criterion"), got))
    assert all(seen[check, verdict] for check in ("opposite", "criterion")
               for verdict in (True, False)), seen


def test_negative_grid_rejected():
    for max_r, max_c in ((-1, 0), (0, -1)):
        with pytest.raises(DoubleComplexError, match="must be >= 0"):
            double_complex(max_r, max_c, {}, {}, {})
