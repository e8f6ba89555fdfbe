import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from datetime import timedelta
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    blocks,
    differential,
    num_rows,
    random_cochain,
    random_dense_cochain,
    random_double_complex,
    random_zigzag_double_complex,
    reference_defects,
    reference_load_json,
    reference_read,
    reference_ss_text,
    reference_total,
    rescale_cells,
    serialize_cochain,
    serialize_double_complex,
    tensor_double_complex,
)
from exhom import cli, complexes, documents, spectral, steinberg, zlinalg
from exhom.cli import MAX_SPACE_DIM, build_parser, main
from exhom.complexes import _Complex
from exhom.documents import (
    MAX_DEGREE_SPAN,
    MAX_TOTAL_DIM,
    DocumentError,
    check_tensor_product,
    parse_chain_document,
    parse_cochain_document,
    parse_double_complex_document,
    parse_int_matrix_document,
)
from exhom.qlinalg import RatMatrix
from exhom.spectral import COLUMN, MAX_GRID, ROW
from exhom.steinberg import MAX_CELL_WIDTH


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- documents

MINIMAL = json.dumps({
    "dims": {"0": 2, "1": 1},
    "differentials": {"0": [["1", "1"]]},
})


def test_parse_minimal_cochain():
    C = parse_cochain_document(MINIMAL)
    assert C.dim(0) == 2 and C.dim(1) == 1
    assert differential(C, 0) == RatMatrix.from_rows([[1, 1]])


def test_parse_accepts_ints_and_rationals():
    doc = json.dumps({"dims": {"0": 1, "1": 1},
                      "differentials": {"0": [[" 2/4 ".strip()]]}})
    C = parse_cochain_document(doc)
    assert differential(C, 0) == RatMatrix(1, 1, ({0: 1},), 2)
    doc = json.dumps({"dims": {"0": 1, "1": 1}, "differentials": {"0": [[3]]}})
    assert differential(parse_cochain_document(doc), 0) \
        == RatMatrix(1, 1, ({0: 3},))


def test_parse_rejects_zero_denominator():
    doc = json.dumps({"dims": {"0": 1, "1": 1},
                      "differentials": {"0": [["1/0"]]}})
    with pytest.raises(DocumentError, match="malformed rational"):
        parse_cochain_document(doc)


def test_parse_rejects_shape_mismatch():
    doc = json.dumps({"dims": {"0": 2, "1": 2},
                      "differentials": {"0": [["1", "1"]]}})
    with pytest.raises(DocumentError, match="shape mismatch"):
        parse_cochain_document(doc)


def test_parse_rejects_nonzero_composite():
    doc = json.dumps({"dims": {"0": 1, "1": 1, "2": 1},
                      "differentials": {"0": [["1"]], "1": [["1"]]}})
    with pytest.raises(DocumentError, match="d o d"):
        parse_cochain_document(doc)


def test_failing_complex_document_builds_no_zero_matrix(monkeypatch):
    def refuse(self, post=RatMatrix.__post_init__):
        post(self)
        if self.rows and self.cols and not any(self.columns):
            raise AssertionError("zero matrix built")

    monkeypatch.setattr(RatMatrix, "__post_init__", refuse)
    cochain = {"dims": {"0": 1, "1": 1, "2": 1, "3": 1, "5": 2},
               "differentials": {"1": [["1"]], "2": [["1"]]}}
    with pytest.raises(DocumentError, match="d o d != 0 at degree 1"):
        parse_cochain_document(json.dumps(cochain))
    chain = {"min_deg": 3, "dims": {"3": 1, "4": 1, "5": 1, "6": 1, "9": 3},
             "differentials": {"4": [[1]], "5": [[1]], "6": [[2]]}}
    with pytest.raises(DocumentError, match="d o d != 0 at degree 4"):
        parse_chain_document(json.dumps(chain))


def test_composite_search_walks_no_degree_span(monkeypatch):
    """d o d is checked on the stored maps only: a document whose degrees
    span the most a document may parses without walking that span."""
    def refuse(self):
        raise AssertionError("degree span walked")

    monkeypatch.setattr(_Complex, "degrees", refuse)
    top = str(MAX_DEGREE_SPAN)
    C = parse_cochain_document(json.dumps({"dims": {"0": 1, top: 1}}))
    assert C.max_deg == MAX_DEGREE_SPAN
    chain = {"dims": {"0": 1, "1": 1, "2": 1, top: 1},
             "differentials": {"1": [[1]], "2": [[1]]}}
    with pytest.raises(DocumentError, match="d o d != 0 at degree 1"):
        parse_chain_document(json.dumps(chain))


def test_parse_rejects_invalid_json():
    with pytest.raises(DocumentError, match="invalid JSON"):
        parse_cochain_document("{not json")


def _loaded(load, text):
    """The repr of what `load` reads off `text` (NaN is equal to itself
    there), or the text of its DocumentError."""
    try:
        return repr(load(text))
    except DocumentError as e:
        return f"DocumentError: {e}"


# Texts json.loads refuses, or reads only on a point the scanner's settings
# decide: empty and blank, a BOM, data after the value, the constants,
# control characters in a string, deep nesting, an integer past the digit
# limit, a float past the range, padding with "\u00a0" (not JSON
# whitespace), bad escapes, and the refusals of each kind of value.
MALFORMED_JSON = (
    "", " \t\r\n", "\ufeff[]", " \ufeff[]", "\ufeff",
    "{} x", "[1] [2]", '{"a": 1}}', "1 2", "01",
    "[NaN, Infinity, -Infinity]", "NaN", "-Infinity", "nan",
    '["a\x01b"]', '["\t"]', '{"a\nb": 1}',
    "[" * 10 ** 5 + "]" * 10 ** 5, "[" * 10 ** 5,
    "[" + "9" * 5000 + "]", "-" + "9" * 5000,
    "[1e400, -1e400]", "[" + "1" * 5000 + ".5]",
    "\u00a0{}", "{}\u00a0", "\u00a0", " \t\n\r{} \r\n",
    '"\\ud800"', '"\\x"', '"abc', "[1,]", "[1,,2]", "{'a': 1}", '{"a" 1}',
    '{"a": 1,}', "{1: 2}", "tru", "-", "1.", ".5", "+1", "1e", "[-]",
    '{"dims": {"0": 1}, "dims": {"0": 2}}', "\x00", "[]\x00",
)


@pytest.mark.parametrize("scanner", ["on"])  # json's C scanner, always there
def test_load_json_reads_and_refuses_as_json_loads_does(monkeypatch,
                                                        scanner):
    """`_load_json` reads what json.loads reads and refuses the rest with
    json's own text."""
    for text in MALFORMED_JSON:
        assert _loaded(documents._load_json, text) \
            == _loaded(reference_load_json, text), text[:40]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4), max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES, indent=st.none() | st.integers(0, 2),
       ascii=st.booleans(), pad=st.text(" \t\r\n", max_size=3))
def test_load_json_equals_json_loads(value, indent, ascii, pad):
    text = pad + json.dumps(value, indent=indent, ensure_ascii=ascii) + pad
    assert documents._load_json(text) == json.loads(text)


def test_chain_document_rejects_fractions():
    doc = json.dumps({"dims": {"0": 1, "1": 1},
                      "differentials": {"1": [["1/2"]]}})
    with pytest.raises(DocumentError, match="non-integer"):
        parse_chain_document(doc)


def test_chain_document_roundtrip_semantics():
    doc = json.dumps({"dims": {"0": 1, "1": 1},
                      "differentials": {"1": [["2"]]}})
    C = parse_chain_document(doc)
    assert differential(C, 1) == RatMatrix(1, 1, ({0: 2},))


def test_int_matrix_document_forms():
    assert parse_int_matrix_document("[[2, 4], [6, 8]]") \
        == RatMatrix.from_rows([[2, 4], [6, 8]])
    assert parse_int_matrix_document('{"matrix": [[1]]}') \
        == RatMatrix.from_rows([[1]])
    with pytest.raises(DocumentError):
        parse_int_matrix_document('"nope"')


def test_double_complex_document_cell_naming():
    doc = json.dumps({
        "max_r": 1, "max_c": 1,
        "dims": {"0,0": 1, "1,0": 1, "0,1": 1, "1,1": 1},
        "horiz": {"0,0": [["1"]], "0,1": [["1"]]},
        "vert": {"0,0": [["1"]], "1,0": [["2"]]},
    })
    with pytest.raises(DocumentError, match=r"square does not commute at \(0,0\)"):
        parse_double_complex_document(doc)


def test_ss_request_handles_each_block_key_and_pair_once(tmp_path, capsys,
                                                         monkeypatch):
    """One `ss` request builds one store per nonzero degree of Tot and no
    store per block, never calls `_totalize`, parses each distinct cell key
    once across dims, horiz and vert, and multiplies D^{n+1} by D^n once
    for each n where both are present, no pair with an absent factor."""
    rng, multiplied = random.Random(52), 0
    for _ in range(12):
        K = random_zigzag_double_complex(rng, grid=3, pieces=8)[0]
        doc = json.loads(serialize_double_complex(K))
        # blocks of empty shape, given explicitly, under a key not in dims
        r, s = next((r, s) for r in range(4) for s in range(4)
                    if (r, s) not in K.dims)
        doc["horiz"][f"{r},{s}"] = [[]] * K.dims.get((r + 1, s), 0)
        doc["vert"][f"{r},{s}"] = [[]] * K.dims.get((r, s + 1), 0)
        f = tmp_path / "k.json"
        f.write_text(json.dumps(doc))
        degrees = K.total.differentials.keys()
        products = sum(n + 1 in degrees for n in degrees)

        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name, args[0] if name == "key" else None] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(RatMatrix, "__post_init__",
                            counted("store", RatMatrix.__post_init__))
        monkeypatch.setattr(documents, "_cell_key",
                            counted("key", documents._cell_key))
        monkeypatch.setattr(complexes, "_products",
                            counted("product", complexes._products))
        monkeypatch.setattr(spectral, "_totalize",
                            counted("totalize", spectral._totalize))
        assert main(["ss", "--input", str(f), "--axis", "col"]) == 0
        monkeypatch.undo()
        capsys.readouterr()
        keys = doc["dims"].keys() | doc["horiz"].keys() | doc["vert"].keys()
        assert calls == Counter({("store", None): len(degrees),
                                 ("product", None): products,
                                 **{("key", k): 1 for k in keys}})
        multiplied += products
    assert multiplied


@pytest.mark.parametrize("maps, message", [
    ({"horiz": {"0,0": [[1, 0], [0]]}},
     "shape mismatch at horiz[0,0]: row 1 has 1 entries, expected 2x2"),
    ({"horiz": {"0,0": [[1, 0], 5]}},
     "matrix at horiz[0,0] must be an array of arrays"),
    ({"horiz": {"0,0": [[1, 0]]}},
     "shape mismatch at horiz[0,0]: got 1 rows, expected 2x2"),
    ({"horiz": {"0,0": [[True, 0], [0, 1]]}},
     "malformed rational at horiz[0,0][0][0]: True"),
    ({"vert": {"1,1": [[1]]}},
     "shape mismatch at vert[1,1]: got 1 rows, expected 0x0"),
    ({"horiz": {"0;0": [[1, 0], [0, 1]]}},
     "malformed cell key '0;0' in 'horiz'"),
    ({"dims": {"3,0": 1}}, "cell (3,0) outside declared rectangle"),
])
def test_double_complex_document_refusals_are_pinned(tmp_path, capsys, maps,
                                                     message):
    """The exact refusal of a ragged row, a row that is not a list, a wrong
    row count, a bool entry, a map key absent from dims (its block of empty
    shape), a malformed map key and a cell outside the declared grid."""
    f = tmp_path / "k.json"
    f.write_text(json.dumps({"max_r": 1, "max_c": 1,
                             "dims": {"0,0": 2, "1,0": 2}, **maps}))
    for command in (["ss", "--axis", "row"], ["oppose", "--n", "0"]):
        assert main([*command, "--input", str(f)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("dims, message", [
    ({"x": 1}, "malformed degree key 'x' in 'dims'"),
    ({"0": -1}, "malformed dimension at dims[0]: -1"),
    ({"0": True}, "malformed dimension at dims[0]: True"),
])
def test_complex_document_refusals_are_pinned(tmp_path, capsys, dims,
                                              message):
    """The exact refusal of a degree key that is not an integer and of a
    dimension that is negative or a bool, by both commands that read a
    chain or cochain document."""
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"dims": dims}))
    f = str(f)
    for command in (["uct", "--input", f, "--mod", "2"],
                    ["kunneth", "--a", f, "--b", f]):
        assert main(command) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


_SQUARE = {"0,0": 1, "1,0": 1, "0,1": 1, "1,1": 1}
# one aliased key per map: (document, argv but --input, refusal)
ALIASED_KEYS = {
    "dims": ({"dims": {"0": 1, "1": 1, "01": 2}}, ["uct", "--mod", "2"],
             "keys '1' and '01' both name 1 in 'dims'"),
    "differentials": (
        {"dims": {"0": 1, "1": 1}, "differentials": {"1": [[1]], "+1": [[0]]}},
        ["uct", "--mod", "2"],
        "keys '1' and '+1' both name 1 in 'differentials'"),
    "horiz": ({"max_r": 1, "max_c": 1, "dims": _SQUARE,
               "horiz": {"0,0": [[1]], "+0,0": [[0]]}},
              ["ss", "--axis", "col"],
              "keys '0,0' and '+0,0' both name (0, 0) in 'horiz'"),
    "vert": ({"max_r": 1, "max_c": 1, "dims": _SQUARE,
              "vert": {"1,0": [[1]], "1, 0": [[0]]}},
             ["oppose", "--n", "1"],
             "keys '1,0' and '1, 0' both name (1, 0) in 'vert'"),
}


@pytest.mark.parametrize("doc, argv, message", ALIASED_KEYS.values(),
                         ids=ALIASED_KEYS)
def test_aliased_keys_are_refused(tmp_path, capsys, doc, argv, message):
    """A second spelling of a degree or cell in one map ("01", "+1", "1, 0",
    which `int` reads as the first) is refused, naming both raw keys, rather
    than letting the later entry replace the earlier one."""
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    name, *rest = argv
    assert run_cli(capsys, name, "--input", str(f), *rest) \
        == (1, "", f"error: {message}\n")


def test_serialize_roundtrip_cochain():
    rng = random.Random(31)
    for _ in range(5):
        C = random_dense_cochain(rng)
        text = serialize_cochain(C)
        C2 = parse_cochain_document(text)
        assert dict(C2.dims) == dict(C.dims)
        for n in C.degrees():
            assert differential(C2, n) == differential(C, n)
        assert serialize_cochain(C2) == text


def test_serialize_roundtrip_double_complex():
    rng = random.Random(32)
    for _ in range(3):
        K = random_double_complex(rng, max_r=2, max_c=2)
        text = serialize_double_complex(K)
        K2 = parse_double_complex_document(text)
        assert K2.dims == K.dims
        assert serialize_double_complex(K2) == text


# ---------------------------------------------------------------------- cli

def test_cli_e2_machine(capsys):
    code, out, err = run_cli(capsys, "e2", "--d", "1", "--dp", "1")
    assert code == 0
    lines = out.splitlines()
    assert "0 0 1" in lines
    assert "1 1 2" in lines
    assert "2 2 1" in lines
    assert len(lines) == 9


def test_cli_e2_table(capsys):
    code, out, _ = run_cli(capsys, "e2", "--d", "2", "--dp", "2",
                           "--m11", "1", "--format", "table")
    assert code == 0
    assert "s\\r" in out


def test_cli_e2_compare_paper(capsys):
    code, out, _ = run_cli(capsys, "e2", "--d", "2", "--dp", "2",
                           "--compare-paper")
    assert code == 0
    assert "cell differences" in out
    assert "(2,2): 3 vs 1" in out
    code2, out2, _ = run_cli(capsys, "e2", "--d", "2", "--dp", "2",
                             "--compare-paper")
    assert out2 == out, "comparison output must be bit-stable"


def test_cli_e2_grids_keep_their_columns_apart(capsys):
    # a difference of -10 is one character wider than every computed and
    # stated entry; each grid row must still split into s and d + d' + 1 cells
    code, out, _ = run_cli(capsys, "e2", "--d", "2", "--dp", "4",
                           "--m10", "10", "--compare-paper")
    assert code == 0
    lines = out.splitlines()
    rows = [lines[lines.index(title) + 2:lines.index(title) + 9]
            for title in ("computed (four-term sum):", "stated (case table):",
                          "difference (computed - stated):")]
    assert all(len(line.split()) == 8 for grid in rows for line in grid)
    assert "-10" in rows[2][0].split()
    # the three grids share one width, so their columns line up
    assert len({len(line) for grid in rows for line in grid}) == 1


@pytest.mark.parametrize("argv, grids", [
    (("--d", "64", "--dp", "64", "--format", "table"), 1),
    (("--d", "50", "--dp", "50", "--compare-paper"), 3)])
def test_cli_grid_headers_keep_three_digit_labels_apart(capsys, argv, grids):
    # at d + d' >= 100 a label is three digits, as wide as a short cell's
    # column; each header must still split back into s\r and 0..d + d'
    code, out, err = run_cli(capsys, "e2", *argv)
    assert (code, err) == (0, "")
    top = int(argv[1]) + int(argv[3])
    heads = [line.split() for line in out.splitlines()
             if line.startswith("  s\\r ")]
    assert heads == [["s\\r", *map(str, range(top + 1))]] * grids


# each subcommand, with one library call it makes and the documents it reads
_LIBRARY_CALLS = [
    (("e2", "--d", "2", "--dp", "2"), steinberg, "e2_table"),
    (("e2", "--d", "2", "--dp", "2", "--compare-paper"), steinberg,
     "paper_table_diff"),
    (("betti", "--d", "2", "--dp", "2"), steinberg, "betti_profile"),
    (("filtration", "--d", "2", "--dp", "2", "--n", "0"), steinberg,
     "covering_filtration_dims"),
    (("ss", "--input", "K", "--axis", "col"), spectral, "spectral_pages"),
    (("kunneth", "--a", "C", "--b", "C"), complexes, "kunneth_check"),
    (("uct", "--input", "C", "--mod", "2"), complexes, "uct_check"),
    (("snf", "--input", "M"), cli, "invariant_factors"),
    (("oppose", "--input", "K", "--n", "0"), spectral, "filtration_on_total"),
]


@pytest.mark.parametrize("error, code", [(ValueError, 2), (DocumentError, 1)])
@pytest.mark.parametrize("argv, module, name", _LIBRARY_CALLS)
def test_cli_maps_every_refusal_to_one_exit(tmp_path, capsys, monkeypatch,
                                            argv, module, name, error, code):
    """A refusal from inside any subcommand exits with one message and no
    traceback: 1 for a bad document, 2 for any other refused input."""
    docs = {"K": {"max_r": 0, "max_c": 0, "dims": {"0,0": 1}},
            "C": {"dims": {"0": 1}}, "M": [[2]]}
    for key, doc in docs.items():
        (tmp_path / key).write_text(json.dumps(doc))

    def refuse(*args):
        raise error("refused")

    monkeypatch.setattr(module, name, refuse)
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    assert run_cli(capsys, *argv) == (code, "", "error: refused\n")


@pytest.mark.parametrize("argv", [
    ("e2", "--format", "machine"), ("e2", "--format", "table"),
    ("e2", "--compare-paper"), ("betti", "--format", "machine"),
    ("betti", "--format", "table"), ("filtration", "--n", "32")])
def test_steinberg_output_is_bounded_by_its_digits_at_the_caps(capsys, argv):
    """At d = d' = 16 with every multiplicity 10**3999 - 1, each printed
    number costs its digits and at most `MAX_CELL_WIDTH` bytes of padding:
    a table padded every cell of a grid to its widest, 4.5 MB for `e2
    --format table` and 14.9 MB for `--compare-paper`."""
    m = str(10 ** 3999 - 1)
    code, out, err = run_cli(capsys, argv[0], "--d", "16", "--dp", "16",
                             "--m10", m, "--m01", m, "--m11", m, *argv[1:])
    assert (code, err) == (0, "")
    assert len(out.encode()) <= sum(len(t) + MAX_CELL_WIDTH
                                    for t in out.split())


def test_cli_e2_compare_paper_odd_case(capsys):
    code, out, err = run_cli(capsys, "e2", "--d", "1", "--dp", "1",
                             "--compare-paper")
    assert code == 2
    assert "no stated table" in err


def test_cli_betti(capsys):
    code, out, _ = run_cli(capsys, "betti", "--d", "1", "--dp", "1")
    assert code == 0
    assert out.splitlines()[0] == "1 0 2 0 1"


def test_cli_betti_table(capsys):
    code, out, _ = run_cli(capsys, "betti", "--d", "1", "--dp", "1",
                           "--format", "table")
    assert code == 0
    assert "n=2 b=2 F=2 2 0 0" in out


def test_cli_betti_machine_builds_no_filtrations(capsys, monkeypatch):
    """--format machine prints b alone: b_n sums one anti-diagonal at a
    time, and no covering filtration is built."""
    from exhom import steinberg
    sp = steinberg.InducedSpectrum(1, 2, 0)
    top = MAX_SPACE_DIM
    b = [0] * (4 * top + 1)
    for (r, s), v in steinberg.e2_table(top, top, sp).grid.items():
        b[r + s] += v
    want = " ".join(map(str, b)) + "\n"

    def refuse(diagonal):
        raise AssertionError("filtration built")

    monkeypatch.setattr(steinberg, "_filtration_dims", refuse)
    argv = ("betti", "--d", str(top), "--dp", str(top), "--m10", "1",
            "--m01", "2")
    build_parser()
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out == want
    # every anti-diagonal and filtration (--format table) take 0.58 MB here
    assert peak < 200_000
    with pytest.raises(AssertionError, match="filtration built"):
        main([*argv, "--format", "table"])


def test_cli_filtration(capsys):
    code, out, _ = run_cli(capsys, "filtration", "--d", "1", "--dp", "1",
                           "--n", "2")
    assert code == 0
    assert out.strip() == "2 2 0 0"
    code, _, err = run_cli(capsys, "filtration", "--d", "1", "--dp", "1",
                           "--n", "9")
    assert code == 2


def test_cli_filtration_reads_only_the_rows_it_needs(capsys):
    """An anti-diagonal reads the rows up to its degree, O(min(d, d')) each,
    so a large d' costs neither time nor memory there.  The CLI takes d'
    up to MAX_SPACE_DIM; the library takes any."""
    from exhom.steinberg import InducedSpectrum, covering_filtration_dims
    code, out, _ = run_cli(capsys, "filtration", "--d", "1", "--dp",
                           str(MAX_SPACE_DIM), "--n", "3", "--m10", "1")
    assert (code, out) == (0, "2 2 1 0 0\n")
    tracemalloc.start()
    try:
        dims = covering_filtration_dims(1, 1000000, InducedSpectrum(1, 0, 0),
                                        3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense row of d' + 2 ints alone would take 8 MB
    assert dims == [2, 2, 1, 0, 0] and peak < 1_000_000
    assert covering_filtration_dims(1, 1000000000, InducedSpectrum(0, 0, 0),
                                    0) == [1, 0]


def test_cli_snf(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text("[[2, 4], [6, 8]]")
    code, out, _ = run_cli(capsys, "snf", "--input", str(f))
    assert code == 0
    assert out.strip() == "2 4"


@pytest.mark.parametrize("argv", [
    ("snf", "--input", "{doc}"),
    ("ss", "--input", "{doc}", "--axis", "row"),
    ("oppose", "--input", "{doc}", "--n", "0"),
    ("kunneth", "--a", "{doc}", "--b", "{doc}"),
    ("uct", "--input", "{doc}", "--mod", "2"),
], ids=lambda argv: argv[0])
def test_cli_refuses_a_file_that_is_not_utf8(tmp_path, capsys, argv):
    f = tmp_path / "doc.json"
    f.write_bytes(b"\xff\xfe[[1]]")
    code, out, err = run_cli(capsys, *(a.format(doc=f) for a in argv))
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {f}: not UTF-8 text\n"


def _text_mode_read(path):
    """The reference reading: the file through a text-mode `open`, refused
    with `cli._read`'s messages."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise DocumentError(f"cannot read {path}: not UTF-8 text") from None


# A valid document for each command that reads files, with the argv that
# reads it from "{doc}".  Each carries a non-ASCII string, which no command
# reads.
_DOUBLE = {"max_r": 2, "max_c": 1,
           "dims": {"0,1": 1, "1,1": 1, "1,0": 1, "2,0": 1},
           "horiz": {"0,1": [["1"]], "1,0": [["1"]]},
           "vert": {"1,0": [["1"]]}, "note": "é"}
READ_CASES = {
    "ss": (_DOUBLE, ("ss", "--input", "{doc}", "--axis", "col", "--pages")),
    "oppose": (_DOUBLE, ("oppose", "--input", "{doc}", "--n", "1")),
    "uct": ({"dims": {"0": 1, "1": 1}, "differentials": {"1": [["2"]]},
             "note": "é"}, ("uct", "--input", "{doc}", "--mod", "2")),
    "snf": ({"matrix": [[2, 4], [6, 8]], "note": "é"},
            ("snf", "--input", "{doc}")),
    "kunneth": ({"dims": {"0": 2, "1": 1},
                 "differentials": {"0": [["1", "1"]]}, "note": "é"},
                ("kunneth", "--a", "{doc}", "--b", "{doc}")),
}


def _with_line_ends(doc, newline, malformed=False):
    """`doc` as indented UTF-8 JSON whose lines end in `newline`; malformed,
    a comma before its closing brace, refused at a line and column."""
    text = json.dumps(doc, indent=1, ensure_ascii=False)
    if malformed:
        text = text[:-2] + ",\n  }"
    return text.replace("\n", newline).encode()


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("command", READ_CASES)
def test_cli_reads_cr_line_ends_as_text_mode_does(tmp_path, capsys, command,
                                                  newline):
    """A valid document, a malformed one and one behind a UTF-8 BOM, each
    with `newline` line ends: stdout, stderr and exit code are those of a
    text-mode read, which names json's line and column after "\\r\\n" and a
    lone "\\r" each became "\\n"."""
    doc, argv = READ_CASES[command]
    texts = {"valid": _with_line_ends(doc, newline),
             "malformed": _with_line_ends(doc, newline, malformed=True)}
    texts["bom"] = b"\xef\xbb\xbf" + texts["malformed"]
    got = {}
    for name, data in texts.items():
        f = tmp_path / f"{command}-{name}.json"
        f.write_bytes(data)
        args = [a.format(doc=f) for a in argv]
        got[name] = run_cli(capsys, *args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_read", _text_mode_read)
            assert got[name] == run_cli(capsys, *args), name
    assert got["valid"][::2] == (0, "")
    # json's wording and column for the comma vary with the Python version
    refusal = re.fullmatch(r"error: invalid JSON: [^:]+: line (\d+) column "
                           r"\d+ \(char \d+\)\n", got["malformed"][2])
    assert refusal and int(refusal[1]) > 1
    assert "Unexpected UTF-8 BOM" in got["bom"][2]


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(
    ["\r", "\n", "\r\n", "\ufeff", "é", "{", " "])).map("".join))
def test_read_equals_a_text_mode_read(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert cli._read(path) == _text_mode_read(path)


@pytest.mark.parametrize("case", ["missing", "directory"])
@pytest.mark.parametrize("command", READ_CASES)
def test_cli_refuses_a_path_it_cannot_read(tmp_path, capsys, command, case):
    f = tmp_path / "doc.json"
    if case == "directory":
        f.mkdir()
    code, out, err = run_cli(capsys, *(a.format(doc=f)
                                       for a in READ_CASES[command][1]))
    reason = {"missing": "No such file or directory",
              "directory": "Is a directory"}[case]
    assert (code, out, err) == (1, "", f"error: cannot read {f}: {reason}\n")


@pytest.mark.parametrize("command", READ_CASES)
def test_cli_reads_dev_stdin_from_a_pipe_as_the_file(tmp_path, command):
    """`--input /dev/stdin` (for kunneth, `--a`) fed a CRLF document through
    a pipe prints the bytes that reading the document's file prints."""
    doc, argv = READ_CASES[command]
    data = _with_line_ends(doc, "\r\n")
    f = tmp_path / "doc.json"
    f.write_bytes(data)
    from_file = [a.format(doc=f) for a in argv]
    piped = list(from_file)
    piped[argv.index("{doc}")] = "/dev/stdin"  # kunneth's --b reads the file
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src}
    file_run, pipe_run = (subprocess.run(
        [sys.executable, "-m", "exhom.cli", *args], input=data,
        capture_output=True, env=env) for args in (from_file, piped))
    assert (file_run.returncode, file_run.stderr) == (0, b"")
    assert (pipe_run.returncode, pipe_run.stdout, pipe_run.stderr) \
        == (0, file_run.stdout, b"")


def test_cli_ss(tmp_path, capsys):
    K = json.dumps({
        "max_r": 2, "max_c": 1,
        "dims": {"0,1": 1, "1,1": 1, "1,0": 1, "2,0": 1},
        "horiz": {"0,1": [["1"]], "1,0": [["1"]]},
        "vert": {"1,0": [["1"]]},
    })
    f = tmp_path / "k.json"
    f.write_text(K)
    code, out, _ = run_cli(capsys, "ss", "--input", str(f), "--axis", "col")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "limit (stable at page 3)"
    assert all(line.endswith(" 0") for line in lines[1:])
    code, out, _ = run_cli(capsys, "ss", "--input", str(f), "--axis", "col",
                           "--pages")
    assert "page 2" in out.splitlines()


def test_cli_ss_pages_at_the_grid_bound(tmp_path, capsys):
    """`ss --pages` on a 64 x 64 grid: 130 pages of 4,225 cells each, all
    but the first few one shared E_infinity page, rendered once.  Output is
    byte for byte the cell-by-cell rendering; formatting every cell of every
    page, each page built on its own, peaks at 48 MB here."""
    f = tmp_path / "k.json"
    f.write_text(json.dumps({
        "max_r": MAX_GRID, "max_c": MAX_GRID,
        "dims": {"0,0": 1, "1,0": 1, "3,5": 2, "64,64": 1},
        "horiz": {"0,0": [[1]]}}))
    K = parse_double_complex_document(f.read_text())
    build_parser()
    for axis, name in ((COLUMN, "col"), (ROW, "row")):
        want = reference_ss_text(K, axis, True)
        tracemalloc.start()
        try:
            code = main(["ss", "--input", str(f), "--axis", name, "--pages"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out.count("\n") == 553_606 and out == want
        assert peak <= 24_000_000, peak


def test_cli_kunneth(tmp_path, capsys):
    doc = json.dumps({"dims": {"0": 2, "1": 1},
                      "differentials": {"0": [["1", "1"]]}})
    f = tmp_path / "c.json"
    f.write_text(doc)
    code, out, _ = run_cli(capsys, "kunneth", "--a", str(f), "--b", str(f))
    assert code == 0
    assert "PASS" in out or "ok" in out.lower()


def test_cli_uct(tmp_path, capsys):
    doc = json.dumps({"dims": {"0": 1, "1": 1},
                      "differentials": {"1": [["2"]]}})
    f = tmp_path / "c.json"
    f.write_text(doc)
    code, out, _ = run_cli(capsys, "uct", "--input", str(f), "--mod", "2")
    assert code == 0
    code, _, err = run_cli(capsys, "uct", "--input", str(f), "--mod", "1")
    assert code == 2


def test_cli_oppose(tmp_path, capsys):
    K = json.dumps({
        "max_r": 1, "max_c": 1,
        "dims": {"0,0": 1, "1,1": 1},
    })
    f = tmp_path / "k.json"
    f.write_text(K)
    code, out, _ = run_cli(capsys, "oppose", "--input", str(f), "--n", "0")
    assert code == 0
    assert "col dims 1 0" in out
    assert "opposite true" in out
    code, _, err = run_cli(capsys, "oppose", "--input", str(f), "--n", "5")
    assert code == 2


def test_cli_builds_its_parser_once():
    assert build_parser() is build_parser()


def test_cli_consecutive_calls_match_fresh_runs(tmp_path):
    """One process answering ss, a usage error and snf in turn prints what a
    fresh process prints for each."""
    K = random_double_complex(random.Random(41), max_r=2, max_c=2)
    k, m = tmp_path / "k.json", tmp_path / "m.json"
    k.write_text(serialize_double_complex(K))
    m.write_text("[[2, 4], [6, 8]]")
    argvs = [["ss", "--input", str(k), "--axis", "row", "--pages"],
             ["snf", "--input", str(m), "--bogus"],
             ["snf", "--input", str(m)]]
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src}
    fresh = [subprocess.run([sys.executable, "-m", "exhom.cli", *argv],
                            capture_output=True, text=True, env=env)
             for argv in argvs]
    for argv, run in zip(argvs * 2, fresh * 2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert (code, out.getvalue(), err.getvalue()) \
            == (run.returncode, run.stdout, run.stderr)
    assert [r.returncode for r in fresh] == [0, 2, 0]


def test_cli_usage_errors(capsys):
    code, _, err = run_cli(capsys, "e2", "--d", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "no-such-command")
    assert code == 2


def test_cli_validation_error_on_bad_document(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"dims": {"0": 1, "1": 1}, "differentials": {"0": [["1/0"]]}}')
    code, _, err = run_cli(capsys, "kunneth", "--a", str(f), "--b", str(f))
    assert code == 1
    assert "malformed rational" in err


def _rejected(code, err):
    return code == 1 and err.startswith("error: ") and "Traceback" not in err


def test_cli_rejects_negative_grid(tmp_path, capsys):
    f = tmp_path / "k.json"
    f.write_text(json.dumps({"max_r": -1, "max_c": 0, "dims": {},
                             "horiz": {}, "vert": {}}))
    code, out, err = run_cli(capsys, "ss", "--input", str(f), "--axis", "col")
    assert _rejected(code, err) and out == ""
    assert "max_r and max_c must be >= 0" in err


def test_cli_rejects_maps_that_are_not_objects(tmp_path, capsys):
    f = tmp_path / "doc.json"
    chain = {"dims": {"0": 1, "1": 1}, "differentials": [1]}
    f.write_text(json.dumps(chain))
    for argv in (("kunneth", "--a", str(f), "--b", str(f)),
                 ("uct", "--input", str(f), "--mod", "2")):
        code, _, err = run_cli(capsys, *argv)
        assert _rejected(code, err)
        assert "malformed 'differentials' map" in err
    for field in ("horiz", "vert"):
        doc = {"max_r": 1, "max_c": 1, "dims": {"0,0": 1}, field: [1]}
        f.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "ss", "--input", str(f), "--axis", "row")
        assert _rejected(code, err)
        assert f"malformed '{field}' map" in err


def test_cli_rejects_non_integer_chain_min_deg(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"min_deg": "a", "dims": {"0": 1}}))
    code, _, err = run_cli(capsys, "uct", "--input", str(f), "--mod", "2")
    assert _rejected(code, err)
    assert "'min_deg' must be an integer" in err


def test_cli_snf_names_ragged_row(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text("[[1, 2], [3]]")
    code, _, err = run_cli(capsys, "snf", "--input", str(f))
    assert _rejected(code, err)
    assert "row 1 has 1 entries, expected 2x2" in err


def test_cli_spectrum_dimensions_must_be_positive(capsys):
    for argv in (("e2", "--d", "0", "--dp", "1"),
                 ("betti", "--d", "1", "--dp", "-3"),
                 ("filtration", "--d", "x", "--dp", "1", "--n", "0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "expected a positive integer" in err
        assert "Traceback" not in err


_BOUND = 10 ** 4000  # multiplicities stay below it


@pytest.mark.parametrize("flag", ["--m10", "--m01", "--m11"])
def test_cli_multiplicities_stay_below_the_bound(capsys, flag):
    for argv in (("e2", "--d", "1", "--dp", "1"),
                 ("e2", "--d", "2", "--dp", "2", "--compare-paper"),
                 ("betti", "--d", "1", "--dp", "1"),
                 ("filtration", "--d", "1", "--dp", "1", "--n", "0")):
        code, out, err = run_cli(capsys, *argv, flag, str(_BOUND))
        assert code == 2 and out == ""
        assert err.endswith(
            f"error: argument {flag}: multiplicities must be below 10**4000\n")


@pytest.mark.parametrize("argv", [
    ("e2", "--d", "2", "--dp", "2"),
    ("e2", "--d", "2", "--dp", "2", "--format", "table"),
    ("e2", "--d", "2", "--dp", "2", "--compare-paper"),
    ("betti", "--d", "64", "--dp", "64"),
    ("betti", "--d", "3", "--dp", "5", "--format", "table"),
    ("filtration", "--d", "64", "--dp", "64", "--n", "128"),
])
def test_cli_prints_every_sum_at_the_multiplicity_bound(capsys, argv):
    """The largest printed number, b_{d+d'} at d = d' = 64 with every
    multiplicity just under the bound, has 4,004 digits: under the 4,300 of
    the int -> str limit."""
    m = str(_BOUND - 1)
    code, out, err = run_cli(capsys, *argv, "--m10", m, "--m01", m,
                             "--m11", m)
    assert code == 0 and err == ""
    assert max(map(len, out.split())) > 4000


def test_cli_e2_prints_the_largest_cells_at_the_bound(capsys):
    m = str(_BOUND - 1)
    code, out, err = run_cli(capsys, "e2", "--d", "64", "--dp", "64",
                             "--m11", m)
    assert code == 0 and err == ""
    assert max(map(len, out.split())) == 4002  # 65 * m11 in (64, 64)


@pytest.mark.parametrize("flag", ["--m10", "--m01", "--m11"])
def test_cli_multiplicities_must_be_nonnegative(capsys, flag):
    for argv in (("e2", "--d", "1", "--dp", "1"),
                 ("betti", "--d", "1", "--dp", "1"),
                 ("filtration", "--d", "1", "--dp", "1", "--n", "0")):
        code, out, err = run_cli(capsys, *argv, flag, "-1")
        assert code == 2 and out == ""
        assert "expected a non-negative integer" in err
        assert "Traceback" not in err


def test_cli_uct_large_prime_modulus(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"dims": {"0": 1, "1": 1},
                             "differentials": {"1": [["2"]]}}))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "uct", "--input", str(f),
                           "--mod", "1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out.startswith("uct: PASS")


def test_cli_uct_rejects_undecidable_modulus(tmp_path, capsys):
    # the bound itself and 2^89 - 1, a prime above it, pass every base
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"dims": {"0": 1}}))
    for m in ("3317044064679887385961981", "618970019642690137449562111"):
        assert run_cli(capsys, "uct", "--input", str(f), "--mod", m) == (
            2, "", "usage: exhom uct [-h] --input INPUT --mod MOD\n"
            f"error: argument --mod: cannot decide whether {m} is prime: "
            "Miller-Rabin is exact only below 3317044064679887385961981\n")


def test_cli_uct_tests_primality_once(tmp_path, capsys, monkeypatch):
    # below the bound is_prime decides every modulus, so only uct_check
    # asks; 2^89 + 1 is above it and divisible by 3, so --mod asks too
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"dims": {"0": 1, "1": 1},
                             "differentials": {"1": [[2]]}}))
    calls, real = [], zlinalg.is_prime

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cli, "is_prime", spy)
    monkeypatch.setattr(complexes, "is_prime", spy)
    for m, asks in ((2, 1), (6, 1), (1000000000000000003, 1),
                    (2 ** 89 + 1, 2)):
        calls.clear()
        code, out, _ = run_cli(capsys, "uct", "--input", str(f),
                               "--mod", str(m))
        assert code == 0 and out.startswith("uct: PASS")
        assert calls == [m] * asks


# ----------------------------------------------------- integer documents

def chain_doc(*entries):
    """Chain document whose d_1 is the 1x2 matrix [[1, entry]]."""
    return json.dumps({"dims": {"0": 1, "1": len(entries) + 1},
                       "differentials": {"1": [[1, *entries]]}})


def test_chain_document_accepts_ints_and_integral_strings():
    C = parse_chain_document(chain_doc(-4, "7", "-3", "6/3"))
    assert differential(C, 1) == RatMatrix(
        1, 5, ({0: 1}, {0: -4}, {0: 7}, {0: -3}, {0: 2}))
    assert differential(C, 1).den == 1
    assert all(type(e) is int
               for col in differential(C, 1).columns for e in col.values())
    assert parse_int_matrix_document('[[1, "6/3"], ["-3", 0]]') \
        == RatMatrix.from_rows([[1, 2], [-3, 0]])


def test_chain_document_bad_entry_messages():
    with pytest.raises(DocumentError) as e:
        parse_chain_document(chain_doc("1/2"))
    assert str(e.value) == "non-integer entry at differentials[1][0][1]: 1/2"
    for bad in (True, 1.5, None, "x"):
        with pytest.raises(DocumentError) as e:
            parse_chain_document(chain_doc(bad))
        assert str(e.value) == \
            f"malformed rational at differentials[1][0][1]: {bad!r}"


@pytest.mark.parametrize("bad", ["1e-99999999", "1e5", "0.5", " 1", "1_0",
                                 "+-1", "1/-2", "\u0663"])
def test_cli_refuses_entries_past_integer_and_p_over_q(tmp_path, capsys,
                                                       bad):
    """Only an integer or "p/q", each with an optional sign, is an entry:
    an exponent form is refused at once rather than expanded."""
    docs = {"ss": {"max_r": 1, "max_c": 0, "dims": {"0,0": 1, "1,0": 1},
                   "horiz": {"0,0": [[bad]]}},
            "snf": {"matrix": [[1, bad]]}}
    where = {"ss": "horiz[0,0][0][0]", "snf": "matrix[0][1]"}
    for command, doc in docs.items():
        f = tmp_path / f"{command}.json"
        f.write_text(json.dumps(doc))
        extra = ("--axis", "col") if command == "ss" else ()
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--input", str(f), *extra)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == f"error: malformed rational at {where[command]}: " \
            f"{bad!r}\n"


def test_chain_document_reports_first_bad_entry_in_row_order():
    with pytest.raises(DocumentError) as e:
        parse_chain_document(chain_doc("1/2", True))
    assert str(e.value) == "non-integer entry at differentials[1][0][1]: 1/2"


@pytest.mark.parametrize("command", [("snf",), ("uct", "--mod", "2")])
def test_cli_rejects_deeply_nested_json(tmp_path, capsys, command):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, command[0], "--input", str(f),
                             *command[1:])
    assert code == 1 and out == ""
    assert "invalid JSON: nested too deeply" in err
    assert "Traceback" not in err


def test_cli_rejects_integer_literals_past_the_digit_limit(tmp_path, capsys):
    huge = "9" * 5000
    f = tmp_path / "doc.json"
    for text, argv in ((f"[[{huge}]]", ("snf",)),
                       (f'{{"max_r": 1, "max_c": 1, "dims": {{"0,0": {huge}}}}}',
                        ("ss", "--axis", "col"))):
        f.write_text(text)
        code, out, err = run_cli(capsys, argv[0], "--input", str(f), *argv[1:])
        assert _rejected(code, err) and out == ""
        assert err == "error: invalid JSON: an integer literal has too many " \
                      "digits\n"


def test_cli_snf_prints_factors_past_the_digit_limit(tmp_path, capsys):
    a, b = 10 ** 4000 + 1, 10 ** 4000 + 3  # coprime: factors 1 and a*b
    f = tmp_path / "m.json"
    f.write_text(json.dumps([[a, 0], [0, b]]))
    code, out, err = run_cli(capsys, "snf", "--input", str(f))
    assert code == 0 and err == ""
    assert out.split() == ["1", str(Decimal(a * b))]
    assert out.split()[1] == "1" + "0" * 3999 + "4" + "0" * 3999 + "3"


def test_cli_rejects_grid_past_the_cap(tmp_path, capsys):
    f = tmp_path / "k.json"
    f.write_text('{"max_r": 3000000, "max_c": 0, "dims": {}}')
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "ss", "--input", str(f), "--axis", "col")
    assert time.perf_counter() - start < 1.0
    assert _rejected(code, err) and out == ""
    assert f"max_r and max_c must be at most {MAX_GRID}, got 3000000 and 0" \
        in err


@pytest.mark.parametrize("dims, code", [
    ({"0": 1, str(MAX_DEGREE_SPAN): 1}, 0),
    ({"-512": 1, "511": 0, "512": 2}, 0),
    ({"0": 1, str(MAX_DEGREE_SPAN + 1): 1}, 1),
    ({"0": 1, "100000000": 1}, 1),
])
def test_cli_bounds_the_degree_span(tmp_path, capsys, dims, code):
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"dims": dims}))
    start = time.perf_counter()
    got, out, err = run_cli(capsys, "uct", "--input", str(f), "--mod", "2")
    assert time.perf_counter() - start < 1.0
    assert got == code
    if code:
        assert out == "" and err == (
            f"error: nonzero degrees must span at most {MAX_DEGREE_SPAN}, "
            f"got 0 to {max(map(int, dims))}\n")
    else:
        assert out.startswith("uct: PASS\n") and err == ""
        assert out.count("\n") == 1 + MAX_DEGREE_SPAN + 1
    with pytest.raises(DocumentError) if code else contextlib.nullcontext():
        parse_cochain_document(json.dumps({"dims": dims}))


@pytest.mark.parametrize("over", [0, 1])
def test_cli_bounds_the_total_dimension(tmp_path, capsys, monkeypatch, over):
    """At MAX_TOTAL_DIM a document parses; one more exits 1 before any
    basis is built, for every subcommand that reads a complex, and before
    any entry is read for `snf`, whose (n - 1) x 1 matrix is the
    differential of a two-term complex of total dimension n."""
    n = MAX_TOTAL_DIM + over
    docs = {"k": {"max_r": 1, "max_c": 0, "dims": {"0,0": n - 1, "1,0": 1},
                  "horiz": {"0,0": [[0] * (n - 1)]}},
            "c": {"dims": {"0": n - 2, "3": 2}, "differentials": {"3": []}},
            "one": {"dims": {"0": 1}},
            "m": [[1]] + [[0]] * (n - 2)}
    # every document has a map, so a parse that read one before the total
    # dimension was checked would count a call of the one entry reader
    calls = []
    monkeypatch.setattr(documents, "_write_entries",
                        lambda *a, write=documents._write_entries, **k:
                        calls.append(a[3]) or write(*a, **k))
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    k, c, one, m = (str(tmp_path / f"{name}.json") for name in docs)
    if not over:
        assert sum(parse_double_complex_document(
            json.dumps(docs["k"])).dims.values()) == n
        assert calls == ["horiz[0,0]"]
        assert sum(parse_chain_document(json.dumps(docs["c"])).dims.values()) \
            == sum(parse_cochain_document(json.dumps(docs["c"])).dims.values()) \
            == n
        # oppose on one cell with no maps at the bound, every vector a
        # class: its chains and coordinates are one entry each
        (tmp_path / "cell.json").write_text(json.dumps(
            {"max_r": 0, "max_c": 0, "dims": {"0,0": n}}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "oppose", "--input",
                                 str(tmp_path / "cell.json"), "--n", "0")
        assert time.perf_counter() - start < 5.0
        assert (code, err) == (0, "")
        assert out == (f"col dims {n} 0\nrow dims {n} 0\n"
                       "opposite true\ndimension_criterion true\n")
        return
    for argv in (["ss", "--input", k, "--axis", "col"],
                 ["ss", "--input", k, "--axis", "row", "--pages"],
                 ["oppose", "--input", k, "--n", "0"],
                 ["uct", "--input", c, "--mod", "2"],
                 ["kunneth", "--a", one, "--b", c],
                 ["snf", "--input", m]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert _rejected(code, err) and out == ""
        assert err == (f"error: total dimension must be at most "
                       f"{MAX_TOTAL_DIM}, got {n}\n")
        assert calls == []  # refused before any matrix is read


@pytest.mark.parametrize("argv", [["e2"], ["e2", "--compare-paper"],
                                  ["betti", "--format", "table"],
                                  ["filtration", "--n", "5"]])
def test_cli_bounds_the_space_dimensions(capsys, monkeypatch, argv):
    """d = d' = MAX_SPACE_DIM runs at once; one more in either exits 2
    before any row of the grid is summed."""
    rows = []
    monkeypatch.setattr(steinberg, "_row", lambda *a, row=steinberg._row:
                        rows.append(a[3]) or row(*a))
    name, *rest = argv
    top = MAX_SPACE_DIM
    start = time.perf_counter()
    code, out, err = run_cli(capsys, name, "--d", str(top), "--dp", str(top),
                             *rest)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out and err == ""
    # each of the rows 0..2 top is summed at most twice (betti's table)
    assert 0 < len(rows) <= 2 * (2 * top + 1) and max(rows) <= 2 * top
    rows.clear()
    for d, dp in ((top + 1, top), (1, top + 1)):
        code, out, err = run_cli(capsys, name, "--d", str(d), "--dp", str(dp),
                                 *rest)
        assert code == 2 and out == ""
        assert f"expected a positive integer at most {top}, got '{top + 1}'" \
            in err
        assert rows == []


def test_cli_bounds_the_tensor_product(tmp_path, capsys):
    side = 64
    assert side * side == MAX_TOTAL_DIM
    a = parse_cochain_document(json.dumps({"dims": {"0": side}}))
    check_tensor_product(a, a)
    (tmp_path / "a.json").write_text(json.dumps({"dims": {"0": side}}))
    (tmp_path / "b.json").write_text(
        json.dumps({"dims": {"0": side, "2": 1}}))
    code, out, err = run_cli(capsys, "kunneth", "--a", str(tmp_path / "a.json"),
                             "--b", str(tmp_path / "b.json"))
    assert _rejected(code, err) and out == ""
    assert err == (f"error: total dimension of the tensor product must be "
                   f"at most {MAX_TOTAL_DIM}, got {side * (side + 1)}\n")


# MAX_TOTAL_DIM generators over the MAX_DEGREE_SPAN + 1 degrees 0..1024:
# the first degrees get one more than the rest
_SPREAD = {str(n): MAX_TOTAL_DIM // (MAX_DEGREE_SPAN + 1)
           + (n < MAX_TOTAL_DIM % (MAX_DEGREE_SPAN + 1))
           for n in range(MAX_DEGREE_SPAN + 1)}
# A, B of dimension 64 each, in degrees 0..7 and 0..3: A (x) B fills 0..10
_A = {str(n): 8 for n in range(8)}
_B = {str(n): 16 for n in range(4)}
# the largest prime below the bound of `is_prime`, found by stepping down
_LARGEST_PRIME = zlinalg._MR_EXACT_BELOW - 168
# a MAX_GRID x MAX_GRID grid of one-dimensional cells, r and s in 1..64, with
# no maps: MAX_TOTAL_DIM cells; with row and column 0 too it has 4,225
_GRID = {"max_r": MAX_GRID, "max_c": MAX_GRID,
         "dims": {f"{r},{s}": 1 for r in range(1, MAX_GRID + 1)
                  for s in range(1, MAX_GRID + 1)}}


@pytest.mark.parametrize("docs, argv, lines", [
    ([{"dims": _SPREAD}], ["uct", "--input", 0, "--mod", "2"],
     1 + MAX_DEGREE_SPAN + 1),
    ([{"dims": _SPREAD}],
     ["uct", "--input", 0, "--mod", str(zlinalg._MR_EXACT_BELOW - 1)],
     1 + MAX_DEGREE_SPAN + 1),
    ([{"dims": {"0": 1, "1": 1}, "differentials": {"1": [[2]]}}],
     ["uct", "--input", 0, "--mod", str(_LARGEST_PRIME)], 1 + 2),
    ([{"dims": _A}, {"dims": _B}], ["kunneth", "--a", 0, "--b", 1], 1 + 11),
    ([[[1]] + [[0]] * (MAX_TOTAL_DIM - 2)], ["snf", "--input", 0], 1),
    ([_GRID], ["ss", "--input", 0, "--axis", "col"],
     1 + (MAX_GRID + 1) ** 2),
    ([_GRID], ["ss", "--input", 0, "--axis", "row"],
     1 + (MAX_GRID + 1) ** 2),
    ([_GRID], ["oppose", "--input", 0, "--n", str(MAX_GRID)], 4),
], ids=["uct-mod-2", "uct-mod-below-the-bound", "uct-largest-prime",
        "kunneth", "snf", "ss-col-grid", "ss-row-grid", "oppose-grid"])
def test_cli_runs_documents_at_the_caps(tmp_path, capsys, docs, argv, lines):
    """Every document family at its caps is accepted: a complex of
    MAX_TOTAL_DIM generators over MAX_DEGREE_SPAN + 1 degrees, two complexes
    whose product has MAX_TOTAL_DIM, a matrix of rows + cols =
    MAX_TOTAL_DIM, a double complex of MAX_TOTAL_DIM cells on the
    MAX_GRID x MAX_GRID grid, and `uct` modulo the largest prime
    `is_prime` decides."""
    assert sum(_SPREAD.values()) == MAX_TOTAL_DIM
    assert sum(_A.values()) * sum(_B.values()) == MAX_TOTAL_DIM
    assert len(_GRID["dims"]) == MAX_TOTAL_DIM
    assert zlinalg.is_prime(_LARGEST_PRIME) and not any(map(
        zlinalg.is_prime, range(_LARGEST_PRIME + 1, zlinalg._MR_EXACT_BELOW)))
    paths = []
    for i, doc in enumerate(docs):
        paths.append(str(tmp_path / f"{i}.json"))
        (tmp_path / f"{i}.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *(a if isinstance(a, str) else paths[a]
                                       for a in argv))
    assert (code, err) == (0, "") and "Traceback" not in out
    assert out.count("\n") == lines


def test_cli_refuses_every_cell_of_the_largest_grid(tmp_path, capsys):
    """The MAX_GRID grid with all its (MAX_GRID + 1)^2 one-dimensional
    cells passes MAX_TOTAL_DIM and exits 1 on every double-complex command,
    before anything is computed."""
    f = tmp_path / "grid.json"
    f.write_text(json.dumps({**_GRID, "dims": {
        f"{r},{s}": 1 for r in range(MAX_GRID + 1)
        for s in range(MAX_GRID + 1)}}))
    for argv in (["ss", "--axis", "col"], ["ss", "--axis", "row"],
                 ["oppose", "--n", str(MAX_GRID)]):
        code, out, err = run_cli(capsys, *argv, "--input", str(f))
        assert _rejected(code, err) and out == ""
        assert err == (f"error: total dimension must be at most "
                       f"{MAX_TOTAL_DIM}, got {(MAX_GRID + 1) ** 2}\n")


# ------------------------------------------- integer storage on the ss path

def _integer_document(K) -> str:
    """K as a document whose matrix entries are JSON ints."""
    doc = json.loads(serialize_double_complex(K))
    for field in ("horiz", "vert"):
        doc[field] = {k: [[int(x) for x in row] for row in M]
                      for k, M in doc[field].items()}
    return json.dumps(doc)


def test_cli_ss_on_an_integer_document_builds_no_fraction(
        tmp_path, capsys, monkeypatch):
    """From parse to render, `ss --pages` on JSON-int entries constructs
    no Fraction, and prints what the "p/q"-string form of the same
    document prints."""
    made = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    rng = random.Random(13)
    maps = 0
    for _ in range(6):
        K = tensor_double_complex(random_cochain(rng, max_pieces=5),
                                  random_cochain(rng, max_pieces=5))
        B = blocks(K)
        maps += len(B.horiz) + len(B.vert)
        ints, strings = tmp_path / "ints.json", tmp_path / "strings.json"
        ints.write_text(_integer_document(K))
        strings.write_text(serialize_double_complex(K))
        for axis in ("col", "row"):
            want = run_cli(capsys, "ss", "--input", str(strings), "--axis",
                           axis, "--pages")
            with monkeypatch.context() as m:
                m.setattr(Fraction, "__new__", staticmethod(counting))
                Fraction(1, 2)  # the count sees construction
                assert len(made) == 1
                made.clear()
                got = run_cli(capsys, "ss", "--input", str(ints), "--axis",
                              axis, "--pages")
            assert made == []
            assert got == want and got[0] == 0
    assert maps >= 10


def _expected_ss(Z, axis, grid):
    """`ss --pages` stdout on a zigzag of `random_zigzag_double_complex`,
    from its known answers."""
    cells = [(p, q) for p in range(grid + 1) for q in range(grid + 1)]
    lines = []
    for r in range(1, 2 * grid + 3):
        dims = Z.page_dims(axis, r)
        lines += [f"page {r}"] + [f"{p} {q} {dims.get((p, q), 0)}"
                                  for p, q in cells]
    dims = Z.page_dims(axis, 2 * grid + 2)
    lines += [f"limit (stable at page {Z.stable_page(axis)})"] + [
        f"{p} {q} {dims.get((p, q), 0)}" for p, q in cells]
    return "\n".join(lines) + "\n"


def test_cli_ss_on_rational_documents_keeps_known_pages(tmp_path, capsys):
    rng = random.Random(12)
    texts = []
    for _ in range(6):
        K, Z = random_zigzag_double_complex(rng, grid=3, pieces=6)
        texts.append(serialize_double_complex(K))
        f = tmp_path / "k.json"
        f.write_text(texts[-1])
        for axis, name in ((COLUMN, "col"), (ROW, "row")):
            assert run_cli(capsys, "ss", "--input", str(f), "--axis", name,
                           "--pages") == (0, _expected_ss(Z, axis, 3), "")
    assert sum("/" in t for t in texts) >= 3  # entries that are not ints


# ------------------------------------------------- CLI contract, any input

# with aliased spellings, which `int` reads as another key's degree or cell
_KEYS = st.sampled_from(["dims", "differentials", "min_deg", "max_r", "max_c",
                         "horiz", "vert", "matrix", "0", "1", "2", "-1",
                         "0,0", "0,1", "1,0", "1,1", "01", "+1", " 0", "1_0",
                         "\u0661", "+0,0", "0, 1", "1,00"]) \
    | st.text(max_size=3)
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3)
            | st.integers(-2 ** 70, 2 ** 70) | st.floats()
            | st.sampled_from(["1", "-1/2", "0", "1/0", "x"])
            | st.text(max_size=3))
_ENTRIES = st.integers(-2, 2) | st.sampled_from(
    ["1", "-1", "1/2", "-2/3", "4/6", "0/5", "1/0", "x", True])


@st.composite
def _double_complex_documents(draw):
    """Small double complex documents: mostly well-shaped blocks between
    the cells of a 3 x 3 grid, some of them zero or keyed where a cell is
    empty, and now and then a bad bound, cell, key, shape or entry."""
    def rare(strategy, usual, odds=10):
        return draw(strategy) if draw(st.integers(1, odds)) == 1 else usual

    grid = [f"{r},{s}" for r in range(3) for s in range(3)]
    stray = st.sampled_from(["3,0", "-1,1", "01,0", "2,2"])
    dims = {k: rare(st.integers(0, 2), 1) for k in grid
            if draw(st.integers(0, 3))}
    dims.update(rare(st.dictionaries(stray, st.integers(0, 2)), {}))
    doc = {"max_r": rare(st.integers(-1, 3), 2),
           "max_c": rare(st.integers(-1, 3), 2), "dims": dims}
    for name, dr, ds in (("horiz", 1, 0), ("vert", 0, 1)):
        doc[name] = {}
        given = [k for k in dims if draw(st.integers(0, 2))]
        for k in given + rare(st.lists(stray, max_size=1), []):
            r, s = map(int, k.split(","))
            rows = dims.get(f"{r + dr},{s + ds}", 0)
            cols = rare(st.integers(0, 2), dims.get(k, 0), 40)
            entry = draw(st.sampled_from([st.integers(-1, 1), st.just(0),
                                          _ENTRIES]))
            doc[name][k] = draw(st.lists(st.lists(entry, min_size=cols,
                                                  max_size=cols),
                                         min_size=rows, max_size=rows))
    return json.dumps(doc)


_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(_KEYS, inner, max_size=5)),
    max_leaves=25).map(json.dumps) | st.text(max_size=20) | st.binary(
    max_size=20) | _double_complex_documents()
_DOC = "<document>"  # replaced by the path of the fuzzed document
_SIZES = st.integers(-2, MAX_SPACE_DIM + 2).map(str) | st.just("x")
# multiplicities reach both sides of the CLI's bound 10**4000, on small
# spaces: at d = d' = 64 a table of 4,000-digit cells runs to 67 MB
_SPECTRUM = st.tuples(st.just("--d"), _SIZES, st.just("--dp"), _SIZES,
                      st.sampled_from(["--m10", "--m01", "--m11"]),
                      st.integers(-1, 3).map(str)) | st.tuples(
    st.just("--d"), st.integers(1, 4).map(str),
    st.just("--dp"), st.integers(1, 4).map(str),
    st.sampled_from(["--m10", "--m01", "--m11"]),
    st.sampled_from([10 ** 4000 - 1, 10 ** 4000]).map(str))
_FORMAT = st.just(()) | st.tuples(st.just("--format"),
                                  st.sampled_from(["table", "machine"]))
_COMMANDS = st.sampled_from(["snf", "uct", "ss", "oppose", "kunneth", "e2",
                             "betti", "filtration"]).flatmap(
    lambda cmd: st.tuples(st.just(cmd), {
        "snf": st.just(("--input", _DOC)),
        "uct": st.tuples(st.just("--input"), st.just(_DOC), st.just("--mod"),
                         st.sampled_from(["2", "3", "4", "1", "x"])),
        "ss": st.tuples(st.just("--input"), st.just(_DOC), st.just("--axis"),
                        st.sampled_from(["row", "col", "x"]))
        | st.tuples(st.just("--input"), st.just(_DOC), st.just("--axis"),
                    st.sampled_from(["row", "col"]), st.just("--pages")),
        "oppose": st.tuples(st.just("--input"), st.just(_DOC), st.just("--n"),
                            st.integers(-2, 8).map(str) | st.just("x")),
        "kunneth": st.just(("--a", _DOC, "--b", _DOC)),
        "e2": st.tuples(_SPECTRUM, _FORMAT | st.just(("--compare-paper",))),
        "betti": st.tuples(_SPECTRUM, _FORMAT),
        "filtration": st.tuples(
            _SPECTRUM, st.tuples(st.just("--n"),
                                 st.integers(-2, 4 * MAX_SPACE_DIM + 2).map(str)
                                 | st.just("x"))),
    }[cmd]))


def _flat(args):
    return [x for a in args
            for x in (_flat(a) if isinstance(a, tuple) else [a])]


# The slowest documents found within the bounds take seconds: `kunneth` of
# two 64-dimensional complexes, a 4,096-dimensional product, about 2 s.
@settings(max_examples=300, deadline=timedelta(seconds=15))
@given(text=_DOCUMENTS, command=_COMMANDS)
def test_cli_exits_cleanly_on_any_document(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(text if isinstance(text, bytes) else text.encode())
        name, rest = command
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([name, *(path if a == _DOC else a
                                 for a in _flat(rest))])
    assert code in (0, 1, 2)
    assert code == 0 or err.getvalue().count("\n") >= 1


_MATRICES = st.lists(st.lists(_SCALARS, max_size=3) | _SCALARS, max_size=3) \
    | st.integers(0, 3).flatmap(lambda cols: st.lists(
        st.lists(_SCALARS, min_size=cols, max_size=cols), max_size=3))


def _read_as_blocks(text):
    """(refusal, `Blocks`) of a document by the per-block reading, then the
    grid checks and the reference per-cell checks: refusal is the message
    the library must give, or None."""
    try:
        B = reference_read(text)
        spectral._check_grid(B.max_r, B.max_c, B.dims)
    except ValueError as e:
        return str(e), None
    return next(iter(reference_defects(B)), None), B


def _agrees_with_the_per_block_reading(text):
    """The parser refuses the document as the per-block reading does, or
    gives the dims and Tot that `_totalize` makes of its blocks; True when
    it accepts."""
    refusal, B = _read_as_blocks(text)
    try:
        K = parse_double_complex_document(text)
    except DocumentError as e:
        assert str(e) == refusal
        return False
    assert refusal is None
    assert K.dims == B.dims and K.total == reference_total(B)
    return True


def test_parser_writes_the_tot_of_the_per_block_reading():
    """The dims and Tot the parser writes straight from a document equal
    the per-block reading's stores, totalized: on random double complexes
    and zigzags, as "p/q" strings and as JSON ints, on cells rescaled to
    coprime denominators, and with blocks of empty shape, blocks keyed
    outside dims and all-zero blocks added."""
    rng, seen = random.Random(29), Counter()
    for t in range(60):
        K = (random_double_complex(rng) if t % 3 == 0 else
             random_zigzag_double_complex(rng, grid=rng.randint(1, 4),
                                          pieces=8, corners=t % 2)[0])
        if t % 3 == 2:
            K = rescale_cells(K, rng)
        doc = json.loads(serialize_double_complex(K))
        r, s = next((r, s) for r in range(6) for s in range(6)
                    if (r, s) not in K.dims)
        doc["horiz"][f"{r},{s}"] = [[]] * K.dims.get((r + 1, s), 0)
        doc["vert"][f"{r},{s}"] = [[]] * K.dims.get((r, s + 1), 0)
        for (r, s), d in K.dims.items():  # a zero vert block where none is
            if K.dims.get((r, s + 1)) and f"{r},{s}" not in doc["vert"]:
                doc["vert"][f"{r},{s}"] = [["0"] * d] * K.dims[r, s + 1]
                seen["zero block"] += 1
        texts = [json.dumps(doc)]
        if all("/" not in x for name in ("horiz", "vert")
               for M in doc[name].values() for row in M for x in row):
            texts.append(_integer_document(K))
        for text in texts:
            assert _agrees_with_the_per_block_reading(text)
            seen["ints" if text is not texts[0] else "strings"] += 1
        seen["den > 1"] += any(D.den > 1 for D in K.total.differentials
                               .values())
    assert min(seen.values()) >= 10, seen


@settings(max_examples=400, deadline=timedelta(seconds=15))
@given(text=_double_complex_documents())
def test_parser_agrees_with_the_per_block_reading_on_any_small_document(text):
    _agrees_with_the_per_block_reading(text)


def test_parse_matrix_equals_from_rows():
    """`_parse_matrix` fills each column from the nonzero positions of each
    row, and its store equals `RatMatrix.from_rows` of the same entries (den,
    numerators, no stored zero): JSON ints, "p/q" strings and both mixed,
    with zero rows and columns planted, and 0 x k and k x 0 shapes."""
    rng, seen = random.Random(37), Counter()

    def entry(kind):
        if rng.random() < 0.4:
            return 0 if kind == "ints" else rng.choice((0, "0", "-0", "0/7"))
        p = rng.randint(-30, 30)
        if kind == "ints" or kind == "mixed" and rng.random() < 0.5:
            return p
        return f"{p}/{rng.randint(1, 9)}" if rng.random() < 0.7 else str(p)

    for t in range(600):
        kind = ("ints", "fractions", "mixed")[t % 3]
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = [[entry(kind) for _ in range(cols)] for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
            m[i] = [rng.choice((0, "0")) for _ in range(cols)]
        for j in rng.sample(range(cols), rng.randint(0, cols // 2)):
            for row in m:
                row[j] = 0
        A = documents._parse_matrix(m, rows, cols, "m")
        assert A == RatMatrix.from_rows(m, cols)
        assert all(map(all, (col.values() for col in A.columns)))
        assert all(list(col) == sorted(col) for col in A.columns
                   if A.den == 1)
        if A.den == 1:
            assert A == documents._parse_matrix(m, rows, cols, "m", True)
        seen[kind] += 1
        seen["den > 1"] += A.den > 1
        seen["0 x k or k x 0"] += not rows or not cols
        seen["zero line"] += any(not col for col in A.columns) or any(
            not any(row) for row in num_rows(A))
    assert min(seen.values()) >= 50, seen


def test_oppose_request_computes_each_sum_dim_once(tmp_path, capsys,
                                                    monkeypatch):
    """One `oppose` request takes both verdicts, and so every
    dim(F^p + G^{n+1-p}), from at most one `_relative_position`; they equal
    `opposite_check` and `dimension_criterion`, which each compute their
    own."""
    rng, both, computed = random.Random(19), 0, 0
    f = tmp_path / "k.json"
    for _ in range(30):
        K = random_zigzag_double_complex(rng, grid=rng.randint(2, 4),
                                         pieces=rng.randint(4, 12),
                                         corners=rng.randint(0, 3))[0]
        f.write_text(serialize_double_complex(K))
        for n in range(K.max_r + K.max_c + 1):
            F = spectral.filtration_on_total(K, COLUMN, n)
            G = spectral.filtration_on_total(K, ROW, n)
            want = (spectral.opposite_check(F, G),
                    spectral.dimension_criterion(F, G))
            calls, position = [], spectral._relative_position
            monkeypatch.setattr(spectral, "_relative_position", lambda F, G:
                                calls.append(1) or position(F, G))
            assert main(["oppose", "--input", str(f), "--n", str(n)]) == 0
            monkeypatch.undo()
            assert capsys.readouterr().out.endswith(
                f"opposite {str(want[0]).lower()}\n"
                f"dimension_criterion {str(want[1]).lower()}\n")
            assert len(calls) <= 1
            computed += len(calls)
            both += all(want) and bool(calls)
    assert both >= 10 and computed, (both, computed)


@settings(max_examples=300)
@given(m=_MATRICES)
def test_matrix_document_parses_as_a_chain_differential(m):
    """One parse path: a matrix document accepts and refuses exactly what
    the matrix of an integer chain complex does, with the same message, and
    gives the same column store over den 1."""
    rows = len(m)
    cols = len(m[0]) if rows and isinstance(m[0], list) else 0
    chain = json.dumps({"dims": {"0": rows, "1": cols},
                        "differentials": {"1": m}})
    try:
        A = parse_int_matrix_document(json.dumps(m))
    except DocumentError as e:
        with pytest.raises(DocumentError) as f:
            parse_chain_document(chain)
        assert str(f.value).replace("differentials[1]", "matrix") == str(e)
        return
    assert A == differential(parse_chain_document(chain), 1)
    assert A.den == 1
