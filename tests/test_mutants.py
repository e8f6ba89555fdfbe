"""Hand-written mutants of the library, each applied with `monkeypatch`, and
the oracle that rejects it, called as a function.

Each test first runs its oracle on the library as it is, where it must
pass, then applies one mutant and runs the same oracle again, where it must
fail.  A mutant that no oracle rejects names a gap in the suite.

1. Row classes by position (class k of the row filtration written as basis
   vector k): rejected by `Counter(Zigzags.classes(n))`, the relative
   position of the two filtrations counted class by class.
2. `spectral._levels` filtering by r on the row axis too: rejected by
   `Zigzags.page_dims`.
3. `zlinalg._rank_mod_p` dropping its last pivot: rejected by
   `dense_rank_mod_p`.
4. `documents` reading aliased keys over each other again: rejected by
   `test_aliased_keys_are_refused`.
5. `steinberg._row` with m10 and m01 swapped: rejected by `ext_row`.
6. `complexes._reduce` without its content division: rejected by the
   128-bit bound of `test_chain_entries_stay_small`.
7. `zlinalg._rank_mod_p` keeping a column whose low already holds a pivot:
   rejected by `dense_rank_mod_p`.
8. `zlinalg._smith_mod` reading a diagonal entry e where it should read
   gcd(e, M): rejected by `smith_normal_form(A).diagonal`.
9. `documents._parse_matrix` storing zeros: rejected by the store equality
   of `test_parse_matrix_equals_from_rows`.
10. `spectral_pages` reporting its stable page one too small: rejected by
    `Zigzags.stable_page`.
11. `documents` writing vertical blocks into Tot without (-1)^r: rejected
    by the per-block reading's Tot, `_totalize`d, of
    `test_parser_writes_the_tot_of_the_per_block_reading`.  It is no
    equivalent mutant: that oracle compares Tot itself, not its pages.
12. `spectral._checked` ranking the square before vert within a cell:
    rejected by
    `test_double_complex_names_the_first_defect_like_the_per_cell_checks`.
13. `cli._Reader` reading a value that starts with "-" off the grammar:
    rejected by the argparse agreement of `tests/test_argv.py`'s corpus.
14. `zlinalg._split_pivots` taking a row-gcd pivot that does not divide its
    column: rejected by `smith_normal_form(A).diagonal` on
    `test_zlinalg.planted_pivots` matrices.
15. `zlinalg._certified` without check (a) and 16. without check (b):
    each rejected by the accepted-equals-Smith assertion of
    `test_zlinalg.test_certificate_accepts_only_the_smith_diagonal`.
17. `zlinalg._euclid` recording a pivot before its row is reduced and
    18. keeping a remainder in the pivot's column without moving the
    pivot: each rejected by `smith_normal_form(D).diagonal` on the
    differentials of random integer chain complexes.
19. `qlinalg._rational` without its `isascii()` test on p: rejected by
    `test_qlinalg.test_rational_reader_accepts_what_the_grammar_accepts`,
    the regular expression's reading.
20. `documents._load_json` ignoring data after the value: rejected by
    `test_documents_cli.test_load_json_reads_and_refuses_as_json_loads_does`.
21. `cli._read` without its "\\r" step: rejected by
    `test_documents_cli.test_cli_reads_cr_line_ends_as_text_mode_does`,
    whose text-mode reading puts json's refusal at another line and column.
22. `complexes._pairing` appending plain tuples: rejected by
    `test_pairing.test_pairing_returns_records_whose_names_read_their_fields`.
23. `spectral._relative_position` reducing G's rows in ascending G-level
    order and 24. taking as a row's low its coordinate of greatest F-level:
    each rejected by `Counter(Zigzags.classes(n))`.
25. `zlinalg.smith_normal_form` applying a column operation to the first
    `rows` rows only, so V is not carried: rejected by
    `test_zlinalg.test_smith_normal_form_equals_the_reference`.
26. `CheckReport.render` writing " ok" for "  ok": rejected by the
    transcript corpus of `tests/test_transcripts.py`.
27. `cli._Reader.parse_args` without its `--` refusal: rejected by
    `test_argv.test_an_option_valued_dashes_is_refused_as_a_missing_value`.
    argparse then stores [] for "--input=--" up to Python 3.12, which
    `_read` fails on with a TypeError, and passes "--" through on 3.13.
28. `zlinalg._bareiss` dividing a three-step row's f by prev, not prev^2,
    29. taking row r + 2 as the third pivot row without a search,
    30. taking the pivot row y2 after its two-step and 31. the pivot row
    y1 after its one step: each rejected by `eager_bareiss` through
    `test_zlinalg.check_bareiss` on `test_zlinalg.three_step_inputs`, by a
    mismatch or by a division by a zero pivot.
32. `zlinalg._chain_factors` solving against B only for a nonsingular
    square block or a minor over 64 bits, the gate the one modulus rule
    dropped: rejected by the route counts of
    `test_zlinalg.small_minor_routes`, as every small-minor block falls
    back to M0.
33. `zlinalg._chain_factors` without the `break` at gcd(M0, Y) = 1:
    rejected by the draw counts of `test_zlinalg.adjoint_draws`, as every
    block draws all of Y.
    Both leave every answer unchanged (the modulus only sets how much
    work the elimination does), so only the route and count tests reject
    them.

Left out: `_totalize` with the vertical sign on even r.  It is an
equivalent mutant, as scaling cell (r, s) by (-1)^s maps one sign
convention onto the other, so no oracle of pages, ranks, filtrations or
verdicts can reject it.
"""

import inspect
import json
import random
import textwrap
from collections import Counter
from math import gcd

import pytest

import test_argv
import test_documents_cli
import test_pairing
import test_qlinalg
import test_spectral
import test_transcripts
import test_zlinalg
from conftest import (
    dense_rank_mod_p,
    ext_row,
    planted_int_matrix,
    random_int_chain,
    random_int_matrix,
    random_low_rank_matrix,
    random_zigzag_double_complex,
)
from exhom import (cli, complexes, documents, qlinalg, spectral, steinberg,
                   zlinalg)
from exhom.complexes import _combine
from exhom.documents import _map_field
from exhom.spectral import COLUMN, ROW, FiltrationChain, SpectralPages
from exhom.steinberg import InducedSpectrum


def _zigzags(count):
    """Fresh small known-answer double complexes, the same on every call."""
    rng = random.Random(83)
    return [random_zigzag_double_complex(rng, grid=rng.randint(2, 5),
                                         pieces=rng.randint(4, 14),
                                         corners=rng.randint(0, 3))
            for _ in range(count)]


def _position_misses(count):
    """Degrees at which the relative position of the column and row
    filtrations differs from `Counter(Zigzags.classes(n))`."""
    misses = 0
    for K, Z in _zigzags(count):
        for n in range(K.max_r + K.max_c + 1):
            F, G = (spectral.filtration_on_total(K, axis, n)
                    for axis in (COLUMN, ROW))
            misses += spectral._relative_position(F, G) \
                != Counter(Z.classes(n))
    return misses


def test_row_classes_by_position_are_rejected(monkeypatch):
    assert _position_misses(40) == 0
    real = spectral.filtration_on_total

    def by_position(K, axis, n):
        F = real(K, axis, n)
        return F if F.rows is None else FiltrationChain(
            F.n, F.ambient_dim, F.levels,
            tuple({k: 1} for k in range(F.ambient_dim)))

    monkeypatch.setattr(spectral, "filtration_on_total", by_position)
    assert _position_misses(40) > 0


@pytest.mark.parametrize("line, replacement", [
    ("for j in _order(G.levels):", "for j in reversed(_order(G.levels)):"),
    ("dict(zip(_order(F.levels), range(h)))",
     "dict(zip(_order(F.levels), range(h, 0, -1)))"),
], ids=["g-rows-ascending", "low-of-greatest-f-level"])
def test_relative_position_mutants_are_rejected(monkeypatch, line,
                                                replacement):
    assert _position_misses(40) == 0
    monkeypatch.setattr(spectral, "_relative_position", _edited(
        spectral._relative_position, line, replacement))
    assert _position_misses(40) > 0


def _page_misses(count):
    """Instances whose pages on either axis differ from `Zigzags.page_dims`."""
    misses = 0
    for K, Z in _zigzags(count):
        for axis in (COLUMN, ROW):
            P = spectral.spectral_pages(K, axis)
            misses += any({pq: d for pq, (d, _) in grid.items()}
                          != Z.page_dims(axis, r)
                          for r, grid in P.pages.items())
    return misses


def test_row_levels_read_off_the_column_are_rejected(monkeypatch):
    assert _page_misses(20) == 0
    real = spectral._levels
    monkeypatch.setattr(spectral, "_levels", lambda K, axis: real(K, COLUMN))
    assert _page_misses(20) > 0


def _rank_mod_p_misses():
    """Random matrices, of full and of low rank, whose rank mod p differs
    from `dense_rank_mod_p`."""
    rng, misses = random.Random(89), 0
    for k in range(40):
        p = rng.choice((2, 3, 7))
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        A = (random_int_matrix(rng) if k % 2 else random_low_rank_matrix(
            rng, rows, cols, rng.randint(0, min(rows, cols))))
        misses += zlinalg._rank_mod_p(A, p) != dense_rank_mod_p(A, p)
    return misses


def test_rank_mod_p_without_its_last_pivot_is_rejected(monkeypatch):
    assert _rank_mod_p_misses() == 0
    real = zlinalg._rank_mod_p
    monkeypatch.setattr(zlinalg, "_rank_mod_p",
                        lambda D, p: max(real(D, p) - 1, 0))
    assert _rank_mod_p_misses() > 0


def _aliases_refused(tmp_path, capsys):
    """The aliased-key cases of `test_aliased_keys_are_refused` it passes."""
    passed = 0
    for i, (doc, argv, message) in enumerate(
            test_documents_cli.ALIASED_KEYS.values()):
        (tmp_path / str(i)).mkdir(parents=True)
        try:
            test_documents_cli.test_aliased_keys_are_refused(
                tmp_path / str(i), capsys, doc, argv, message)
        except AssertionError:
            continue
        passed += 1
    return passed


def test_aliased_keys_read_over_each_other_are_rejected(tmp_path, capsys,
                                                        monkeypatch):
    assert _aliases_refused(tmp_path / "library", capsys) == 4

    def last_key_wins(doc, name, parse_key, keys, required=False):
        for k, v in _map_field(doc, name, required).items():
            key = keys[k] if k in keys else keys.setdefault(
                k, parse_key(k, name))
            yield k, key, v

    monkeypatch.setattr(documents, "_entries", last_key_wins)
    assert _aliases_refused(tmp_path / "mutant", capsys) == 0


def _row_misses():
    """Rows of E2 at d != d' that differ from `ext_row`; at d = d' the
    Kunneth pairs are symmetric and a swap of m10 and m01 leaves them."""
    spectrum, misses = InducedSpectrum(1, 2, 3), 0
    for d, dp in ((1, 2), (2, 1), (2, 3), (3, 3)):
        for s in range(d + dp + 1):
            misses += steinberg._row(d, dp, spectrum, s) \
                != ext_row(d, dp, spectrum, s)
    return misses


def test_row_with_m10_and_m01_swapped_is_rejected(monkeypatch):
    assert _row_misses() == 0
    real = steinberg._row
    monkeypatch.setattr(steinberg, "_row", lambda d, dp, sp, s: real(
        d, dp, InducedSpectrum(sp.m01, sp.m10, sp.m11), s))
    assert _row_misses() > 0


def _reduce_without_content_division(vec, chain, pivots, ranks):
    while vec:
        low = max(vec, key=ranks.__getitem__)
        if low not in pivots:
            return vec, chain, low
        pvec, pchain = pivots[low][:2]
        g = gcd(pvec[low], vec[low])
        a, b = pvec[low] // g, vec[low] // g
        vec, chain = _combine(a, vec, b, pvec), _combine(a, chain, b, pchain)
    return vec, chain, None


def test_reduce_without_content_division_is_rejected(monkeypatch):
    instance = random_zigzag_double_complex(random.Random(5), grid=4,
                                            pieces=60)
    test_pairing.test_chain_entries_stay_small(instance)
    monkeypatch.setattr(complexes, "_reduce",
                        _reduce_without_content_division)
    with pytest.raises(AssertionError) as bound:
        test_pairing.test_chain_entries_stay_small(instance)
    assert str(bound.traceback[-1].statement).strip() \
        == "assert max(bits) <= 128"


def _rank_mod_p_keeping_taken_lows(D, p):
    """`_rank_mod_p` with `if` for `while`: a column takes at most one
    reduction step and is then kept, even when its new low holds a pivot."""
    pivots, kept = {}, 0
    for col in D.columns:
        v = {i: y for i, x in col.items() if (y := x % p)}
        if v and (low := max(v)) in pivots:
            pv, inv = pivots[low]
            f = v[low] * inv % p
            for i, y in pv.items():
                if x := (v.get(i, 0) - f * y) % p:
                    v[i] = x
                else:
                    del v[i]
        if v:
            pivots[max(v)] = v, pow(v[max(v)], -1, p)
            kept += 1
    return kept


def test_rank_mod_p_keeping_a_taken_low_is_rejected(monkeypatch):
    assert _rank_mod_p_misses() == 0
    monkeypatch.setattr(zlinalg, "_rank_mod_p",
                        _rank_mod_p_keeping_taken_lows)
    assert _rank_mod_p_misses() > 0


def _edited(function, line, replacement):
    """`function` with its one source line `line` replaced, compiled over a
    copy of its module's globals; an edit that no longer applies fails."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(line) == 1, line
    scope = dict(function.__globals__)
    exec(source.replace(line, replacement), scope)
    return scope[function.__name__]


def _smith_misses():
    """Planted and random matrices whose `invariant_factors` differ from
    `smith_normal_form(A).diagonal`."""
    rng, misses = random.Random(97), 0
    for k in range(40):
        A = (planted_int_matrix(rng, rng.randint(2, 7), rng.randint(2, 7))[0]
             if k % 2 else random_int_matrix(rng))
        misses += zlinalg.invariant_factors(A) \
            != zlinalg.smith_normal_form(A).diagonal
    return misses


def test_smith_mod_reading_e_for_its_gcd_with_m_is_rejected(monkeypatch):
    assert _smith_misses() == 0
    monkeypatch.setattr(zlinalg, "_smith_mod", _edited(
        zlinalg._smith_mod, "diag.append(g)", "diag.append(a)"))
    assert _smith_misses() > 0


def test_parse_matrix_storing_zeros_is_rejected(monkeypatch):
    test_documents_cli.test_parse_matrix_equals_from_rows()
    real = documents._parse_matrix

    def storing_zeros(raw, rows, cols, where, integral=False):
        A = real(raw, rows, cols, where, integral)
        for col in A.columns:
            col.update({i: 0 for i in range(rows) if i not in col})
        return A

    monkeypatch.setattr(documents, "_parse_matrix", storing_zeros)
    with pytest.raises(AssertionError) as equality:
        test_documents_cli.test_parse_matrix_equals_from_rows()
    assert str(equality.traceback[-1].statement).strip() \
        == "assert A == RatMatrix.from_rows(m, cols)"


def _stable_page_misses(count):
    """Instances whose stable page on either axis differs from
    `Zigzags.stable_page`."""
    return sum(spectral.spectral_pages(K, axis).stable_page
               != Z.stable_page(axis)
               for K, Z in _zigzags(count) for axis in (COLUMN, ROW))


def test_stable_page_one_too_small_is_rejected(monkeypatch):
    assert _stable_page_misses(20) == 0
    real = spectral.spectral_pages

    def one_too_small(K, axis):
        P = real(K, axis)
        return SpectralPages(P.filtration_axis, P.pages, P.d_ranks, P.limit,
                             P.stable_page - 1)

    monkeypatch.setattr(spectral, "spectral_pages", one_too_small)
    assert _stable_page_misses(20) > 0


def test_vertical_blocks_written_without_their_sign_are_rejected(
        monkeypatch):
    test_documents_cli.test_parser_writes_the_tot_of_the_per_block_reading()
    unsigned = _edited(documents.parse_double_complex_document,
                       "-1 if ds and r & 1 else 1)", "1)")
    monkeypatch.setattr(test_documents_cli, "parse_double_complex_document",
                        unsigned)
    with pytest.raises(AssertionError):
        test_documents_cli.test_parser_writes_the_tot_of_the_per_block_reading()


def test_square_ranked_before_vert_is_rejected(monkeypatch):
    first_defect = test_spectral.\
        test_double_complex_names_the_first_defect_like_the_per_cell_checks
    first_defect()
    horiz, vert, square = spectral._DEFECTS.items()
    monkeypatch.setattr(spectral, "_DEFECTS", dict((horiz, square, vert)))
    with pytest.raises(AssertionError):
        first_defect()


def _argv_paths(tmp_path):
    """`test_argv.DOCUMENTS` written under tmp_path, as its `paths`."""
    paths = {}
    for name, doc in test_argv.DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
        paths[name[0]] = str(tmp_path / name)
    return paths


def _argv_misreads(tmp_path):
    """argvs of `test_argv.CORPUS` on which the reader and argparse
    disagree."""
    paths = _argv_paths(tmp_path)
    misreads = 0
    for argv in test_argv.CORPUS:
        try:
            test_argv.check([token.format(**paths) for token in argv])
        except AssertionError:
            misreads += 1
    return misreads


def test_reader_taking_a_dash_value_is_rejected(tmp_path, monkeypatch):
    assert _argv_misreads(tmp_path) == 0
    monkeypatch.setattr(cli._Reader, "_from_grammar", _edited(
        cli._Reader._from_grammar,
        'elif (text := next(tokens, "-")).startswith("-"):',
        "elif (text := next(tokens, None)) is None:"))
    assert _argv_misreads(tmp_path) > 0


def _split_misses():
    """`test_zlinalg.planted_pivots` matrices, whose row gcds often fail
    to divide their columns, with `invariant_factors` other than
    `smith_normal_form(A).diagonal`."""
    rng = random.Random(33)
    return sum(zlinalg.invariant_factors(A)
               != zlinalg.smith_normal_form(A).diagonal
               for A in (test_zlinalg.planted_pivots(
                   rng, rng.randint(1, 8), rng.randint(1, 8))
                   for _ in range(200)))


def test_split_taking_a_pivot_that_does_not_divide_its_column_is_rejected(
        monkeypatch):
    assert _split_misses() == 0
    monkeypatch.setattr(zlinalg, "_split_pivots", _edited(
        zlinalg._split_pivots,
        "if gcd(p, *[other[j] for other in m.values()]) != p:", "if False:"))
    assert _split_misses() > 0


@pytest.mark.parametrize("line, replacement", [
    ("if _coprime_part(e[-1], G // e[-1]) > 1:", "if False:"),
    ("return e if Q == 1 or _smith_mod(A, Q, r) == [1] * r else None",
     "return e"),
], ids=["without-a", "without-b"])
def test_certificate_without_one_check_is_rejected(monkeypatch, line,
                                                    replacement):
    oracle = test_zlinalg.test_certificate_accepts_only_the_smith_diagonal
    oracle()
    monkeypatch.setattr(test_zlinalg, "_certified",
                        _edited(zlinalg._certified, line, replacement))
    with pytest.raises(AssertionError) as equality:
        oracle()
    assert str(equality.traceback[-1].statement).strip() \
        == "assert e is None or e == d"


def _chain_misses():
    """Differentials of random integer chain complexes whose factors by
    the chain route, `_chain_factors`, differ from
    `smith_normal_form(D).diagonal`."""
    rng = random.Random(61)
    return sum(zlinalg._chain_factors(D)
               != zlinalg.smith_normal_form(D).diagonal
               for _ in range(100) for D in random_int_chain(
                   rng, max_deg=4, max_pieces=6,
                   max_mult=12).differentials.values())


@pytest.mark.parametrize("line, replacement", [
    ("r = min(filter(None, y), key=abs, default=0)", "r = 0"),
    ("if k is not None:", "if False:"),
], ids=["recorded-before-its-row-is-reduced", "remainder-kept"])
def test_euclid_phase_mutants_are_rejected(monkeypatch, line, replacement):
    assert _chain_misses() == 0
    monkeypatch.setattr(zlinalg, "_euclid",
                        _edited(zlinalg._euclid, line, replacement))
    assert _chain_misses() > 0


def _bareiss_misses():
    """`test_zlinalg.three_step_inputs` matrices on which `_bareiss` differs
    from `eager_bareiss` or divides by a zero pivot."""
    misses = 0
    for A in test_zlinalg.three_step_inputs():
        try:
            test_zlinalg.check_bareiss(A)
        except (AssertionError, ZeroDivisionError):
            misses += 1
    return misses


@pytest.mark.parametrize("line, replacement", [
    ("q, t0, t1 = prev * prev, t0[1:], t1[1:]",
     "q, t0, t1 = prev, t0[1:], t1[1:]"),
    ("s = next((i for i in range(r + 2, rows)",
     "s = r + 2 or next((i for i in range(r + 2, rows)"),
    ("t2 = y2[c + 3:]",
     "t2 = [(b * x + e1 * y + e2 * z) // prev"
     " for x, y, z in zip(y2[c + 3:], t1[1:], t0[1:])]"),
    ("a10, a11, t0, t1 = y1[c], y1[c + 1], y0[c + 2:], y1[c + 2:]",
     "a10, a11, t0, t1 = y1[c], y1[c + 1], y0[c + 2:], [(a00 * x - y1[c] * y)"
     " // prev for x, y in zip(y1[c + 2:], y0[c + 2:])]"),
], ids=["f-over-prev", "third-pivot-unsearched", "y2-after-its-two-step",
        "y1-after-its-step"])
def test_bareiss_mutants_are_rejected(monkeypatch, line, replacement):
    assert _bareiss_misses() == 0
    monkeypatch.setattr(test_zlinalg, "_bareiss",
                        _edited(zlinalg._bareiss, line, replacement))
    assert _bareiss_misses() > 0


def test_a_solve_gated_at_64_bits_is_rejected(monkeypatch):
    """An equivalent mutant for the answers: only the route counts of
    `small_minor_routes` reject it."""
    traced = test_zlinalg.route_tracer(monkeypatch)
    routes = test_zlinalg.SMALL_MINOR_ROUTES
    assert test_zlinalg.small_minor_routes(traced) == routes
    monkeypatch.setattr(zlinalg, "_chain_factors", _edited(
        zlinalg._chain_factors,
        "for y in _adjoint_columns(low, piv, cols):",
        "for y in (_adjoint_columns(low, piv, cols) if r == rows == cols"
        " or M0.bit_length() > 64 else ()):"))
    assert test_zlinalg.small_minor_routes(traced) == {
        "minor": sum(routes.values())}


def test_a_solve_without_its_early_stop_is_rejected(monkeypatch):
    """An equivalent mutant for the answers and the modulus: only the draw
    counts of `adjoint_draws` reject it."""
    draws = test_zlinalg.adjoint_draws(monkeypatch)

    def early_stops():
        return sum(drawn < r for drawn, r, full, M in draws()
                   if full == M == 1)

    assert early_stops() >= 15
    monkeypatch.setattr(zlinalg, "_chain_factors", _edited(
        zlinalg._chain_factors, "break  # no later entry can lower it",
        "pass"))
    assert early_stops() == 0


def test_rational_reader_taking_non_ascii_digits_is_rejected(monkeypatch):
    oracle = test_qlinalg.test_rational_reader_accepts_what_the_grammar_accepts
    oracle()
    mutant = _edited(qlinalg._rational,
                     "if digits.isdigit() and digits.isascii() and (",
                     "if digits.isdigit() and (")
    monkeypatch.setattr(qlinalg, "_rational", mutant)
    monkeypatch.setattr(documents, "_rational", mutant)
    with pytest.raises(AssertionError):
        oracle()


def test_load_json_ignoring_trailing_data_is_rejected(monkeypatch):
    oracle = test_documents_cli.\
        test_load_json_reads_and_refuses_as_json_loads_does
    oracle(monkeypatch, "on")
    monkeypatch.setattr(documents, "_load_json", _edited(
        documents._load_json, "if not text[end:].strip(_SPACE):", "if True:"))
    with pytest.raises(AssertionError):
        oracle(monkeypatch, "on")


def _cr_cases_read_as_text_mode_does(tmp_path, capsys):
    """The cases of `test_cli_reads_cr_line_ends_as_text_mode_does` that
    pass."""
    oracle = test_documents_cli.test_cli_reads_cr_line_ends_as_text_mode_does
    passed = 0
    for command in test_documents_cli.READ_CASES:
        for newline in ("\r\n", "\r"):
            case = tmp_path / f"{command}{len(newline)}"
            case.mkdir(parents=True)
            try:
                oracle(case, capsys, command, newline)
            except AssertionError:
                continue
            passed += 1
    return passed


def test_read_without_its_cr_step_is_rejected(tmp_path, capsys, monkeypatch):
    assert _cr_cases_read_as_text_mode_does(tmp_path / "library", capsys) == 10
    monkeypatch.setattr(cli, "_read", _edited(
        cli._read, '.replace("\\r\\n", "\\n").replace("\\r", "\\n")', ""))
    assert _cr_cases_read_as_text_mode_does(tmp_path / "mutant", capsys) == 0


def test_pairing_appending_plain_tuples_is_rejected(monkeypatch):
    oracle = test_pairing.\
        test_pairing_returns_records_whose_names_read_their_fields
    oracle()
    monkeypatch.setattr(complexes, "_Generator", tuple)
    with pytest.raises(AssertionError):
        oracle()


def test_smith_form_not_carrying_v_is_rejected(monkeypatch):
    oracle = test_zlinalg.test_smith_normal_form_equals_the_reference
    oracle()
    monkeypatch.setattr(test_zlinalg, "smith_normal_form", _edited(
        zlinalg.smith_normal_form,
        "for row in m:\n                        row[j] -= q * row[t]",
        "for row in m[:rows]:\n                        row[j] -= q * row[t]"))
    with pytest.raises(AssertionError):
        oracle()


def _transcript_misses():
    return sum(len(test_transcripts.check_block(block))
               for block in test_transcripts.load()["blocks"])


def test_check_report_with_one_space_before_ok_is_rejected(monkeypatch):
    assert _transcript_misses() == 0
    monkeypatch.setattr(complexes.CheckReport, "render", _edited(
        complexes.CheckReport.render, 'line += "  ok" if', 'line += " ok" if'))
    assert _transcript_misses() > 0


def _dashes_refused(tmp_path, monkeypatch):
    """The argvs of `test_argv.DASHES` that `main` refuses with the one
    usage error."""
    oracle = test_argv.\
        test_an_option_valued_dashes_is_refused_as_a_missing_value
    paths, refused = _argv_paths(tmp_path), 0
    for argv in test_argv.DASHES:
        try:
            oracle(monkeypatch, paths, argv)
        except (AssertionError, TypeError):  # TypeError: `_read([])`
            continue
        refused += 1
    return refused


def test_reader_without_its_dashes_refusal_is_rejected(tmp_path,
                                                       monkeypatch):
    assert _dashes_refused(tmp_path, monkeypatch) == len(test_argv.DASHES)
    monkeypatch.setattr(cli._Reader, "parse_args", _edited(
        cli._Reader.parse_args,
        """self._argparse.error("'--' is not part of exhom's command line")""",
        "pass"))
    assert _dashes_refused(tmp_path, monkeypatch) == 0
