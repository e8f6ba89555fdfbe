"""What a CLI run imports.  `import exhom.cli` and the parser load, beyond
the interpreter's own start-up set, exactly `math`, `itertools`,
`_operator`, json's C scanner `_json` and exhom's modules but `steinberg`.
A run of `ss`, `oppose`, `uct` or `snf` on an integer or "p/q" document
loads no module past those, so none that it needs is deferred to the
request.  Neither those runs nor the library paths load `re`, the `json`
package, `enum`, `functools`, `collections`, `numbers`, `decimal`,
`fractions`, `__future__`, `types` or `operator`.  `steinberg` loads on
the first run of `e2`, `betti` or `filtration`.  A document that json
refuses is read again by `json.loads`, which then loads.  `argparse` (with
`gettext`, and `shutil` for the terminal width) loads only when its parser
is built: for help, usage and error output and for the spellings the
grammar reader leaves to it.  Each check runs a fresh `python -S`
interpreter and counts modules, not milliseconds.  The help and usage text
is the stock argparse text at every width."""

import json
import os
import subprocess
import sys

import pytest

from exhom import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WATCHED = ("dataclasses", "typing", "inspect", "fractions", "decimal",
           "shutil", "argparse", "gettext", "re", "json", "enum",
           "functools", "collections", "numbers", "__future__", "types",
           "operator")

# Runs `exhom.cli.main(argv)` after building the parser (or only builds the
# parser when argv is empty), then writes the watched modules that are
# loaded, and every module `main` loaded, as the last line of stderr.
CHILD = f"""
import sys
import exhom.cli
exhom.cli.build_parser()
imported = set(sys.modules)
code = exhom.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print("loaded:", *sorted(m for m in sys.modules
                          if m in {WATCHED!r} or m not in imported),
      file=sys.stderr)
sys.exit(code)
"""


# Builds stores with `RatMatrix.from_rows` from ints, bools and "p/q"
# strings and runs the Smith diagonal, the pages of a double complex and the
# universal-coefficient check on them, then writes the watched modules that
# are loaded as the last line of stderr.
LIBRARY_CHILD = f"""
import sys
from exhom.complexes import int_chain_complex, uct_check
from exhom.qlinalg import RatMatrix
from exhom.spectral import COLUMN, double_complex, spectral_pages
from exhom.zlinalg import invariant_factors

assert invariant_factors(RatMatrix.from_rows([[2, True], [False, 4]])) \\
    == (1, 8)
K = double_complex(2, 1, {{(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1}},
                   {{(0, 1): RatMatrix.from_rows([["1/2"]]),
                     (1, 0): RatMatrix.from_rows([["-2/3"]])}},
                   {{(1, 0): RatMatrix.from_rows([["3"]])}})
P = spectral_pages(K, COLUMN)
assert P.stable_page == 3 and not any(P.limit.values())
C = int_chain_complex(0, {{0: 2, 1: 2}},
                      {{1: RatMatrix.from_rows([[2, "0/5"], [False, "6/2"]])}})
assert uct_check(C, 2).passed
print("loaded:", *sorted(m for m in {WATCHED!r} if m in sys.modules),
      file=sys.stderr)
"""


def run_fresh(*argv, child=CHILD):
    """(exit code, stdout, watched modules loaded) of one fresh run."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, "-S", "-c", child, *argv],
                         env=env, capture_output=True, text=True, timeout=60)
    *_, last = run.stderr.splitlines()
    assert last.startswith("loaded:"), run.stderr
    return run.returncode, run.stdout, set(last.split()[1:])


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def double_complex_doc(one, two, three):
    """The README double complex, its three maps given by these entries."""
    return {"max_r": 2, "max_c": 1,
            "dims": {"0,1": 1, "1,1": 1, "1,0": 1, "2,0": 1},
            "horiz": {"0,1": [[one]], "1,0": [[two]]},
            "vert": {"1,0": [[three]]}}


LIMIT_ZERO = ("limit (stable at page 3)\n"
              "0 0 0\n0 1 0\n1 0 0\n1 1 0\n2 0 0\n2 1 0\n")


def test_import_and_parser_load_none_of_the_watched_modules():
    code, out, loaded = run_fresh()
    assert (code, out, loaded) == (0, "", set())


# Writes, as the last line of stderr, every module that `import exhom.cli`
# and the parser load beyond those loaded before.
FOOTPRINT_CHILD = """
import sys
before = set(sys.modules)
import exhom.cli
exhom.cli.build_parser()
print("loaded:", *sorted(set(sys.modules) - before), file=sys.stderr)
"""


def test_import_loads_exactly_the_request_modules():
    """Four standard-library modules and exhom's own, `steinberg` left
    out: it is the only module the commands that read a document do not
    need."""
    assert run_fresh(child=FOOTPRINT_CHILD) == (0, "", {
        "math", "itertools", "_operator", "_json", "exhom", "exhom._record",
        "exhom.cli", "exhom.complexes", "exhom.documents", "exhom.qlinalg",
        "exhom.spectral", "exhom.zlinalg"})


DOCUMENTS = {  # by command: a document of integer entries and one of "p/q"s
    "uct": ({"min_deg": 0, "dims": {"0": 2, "1": 2},
             "differentials": {"1": [[2, 0], [0, 3]]}},
            {"min_deg": 0, "dims": {"0": 2, "1": 2},
             "differentials": {"1": [["4/2", "0/7"], ["0", "-9/3"]]}}),
    "ss": (double_complex_doc(1, -1, 3),
           double_complex_doc("1/2", "-2/3", "3")),
    "oppose": (double_complex_doc(1, -1, 3),
               double_complex_doc("1/2", "-2/3", "3")),
    "snf": ([[2, 4], [6, 8]], [["6/3", "4"], ["+6", "16/2"]]),
}
EXTRA = {"uct": ["--mod", "2"], "ss": ["--axis", "col"],
         "oppose": ["--n", "1"], "snf": []}
OUTPUT = {"uct": "uct: PASS\n  degree 0: 1 vs 1  ok\n"
                 "  degree 1: 1 vs 1  ok\n",
          "ss": LIMIT_ZERO, "snf": "2 4\n",
          "oppose": "col dims 0 0 0\nrow dims 0 0 0\nopposite true\n"
                    "dimension_criterion true\n"}


def run_command(tmp_path, command, doc):
    return run_fresh(command, "--input", write(tmp_path, "doc.json", doc),
                     *EXTRA[command])


@pytest.mark.parametrize("kind", ["uct", "ss", "oppose", "snf"])
def test_integer_documents_load_neither_fractions_nor_decimal(tmp_path, kind):
    """Nor any other watched module, nor any the import did not load."""
    code, out, loaded = run_command(tmp_path, kind, DOCUMENTS[kind][0])
    assert (code, loaded) == (0, set())
    assert out == OUTPUT[kind]


@pytest.mark.parametrize("command", ["uct", "oppose", "snf"])
def test_p_over_q_documents_load_none_of_the_watched_modules(tmp_path,
                                                             command):
    code, out, loaded = run_command(tmp_path, command, DOCUMENTS[command][1])
    assert (code, loaded) == (0, set())
    assert out == OUTPUT[command]


def test_snf_prints_without_decimal(tmp_path):
    """A factor past the int-string digit limit is printed in pieces by
    str, so `snf` loads no watched module."""
    a, b = 10 ** 4000 + 1, 10 ** 4000 + 3  # coprime: factors 1 and a*b
    code, out, loaded = run_command(tmp_path, "snf", [[a, 0], [0, b]])
    assert (code, loaded) == (0, set())
    assert out == "1 1" + "0" * 3999 + "4" + "0" * 3999 + "3\n"


def test_rational_double_complex_loads_no_watched_module(tmp_path):
    """A "p/q" entry is split into two ints, so `fractions` (and the
    `decimal` it imports) stays unloaded, and so does every other watched
    module."""
    path = write(tmp_path, "k.json", double_complex_doc("1/2", "-2/3", "3"))
    assert run_fresh("ss", "--input", path, "--axis", "col") == (
        0, LIMIT_ZERO, set())


CLOSED_FORM = {  # argv of e2, betti and filtration: what each prints
    ("e2", "--d", "1", "--dp", "1"):
        "0 0 1\n0 1 0\n0 2 0\n1 0 0\n1 1 2\n1 2 0\n2 0 0\n2 1 0\n2 2 1\n",
    ("e2", "--d", "1", "--dp", "1", "--m11", "2", "--format", "table"):
        "  s\\r   0  1  2\n    2   2  0  1\n    1   0  6  0\n"
        "    0   1  0  2\n",
    ("betti", "--d", "1", "--dp", "1", "--m10", "1"): "1 2 2 2 1\n",
    ("filtration", "--d", "2", "--dp", "2", "--m10", "1", "--n", "2"):
        "5 4 1 0\n",
}


@pytest.mark.parametrize("argv", list(CLOSED_FORM))
def test_closed_form_commands_load_steinberg_on_first_use(argv):
    assert run_fresh(*argv) == (0, CLOSED_FORM[argv], {"exhom.steinberg"})


def test_library_paths_load_no_fractions():
    """The column store is the only form of a matrix: building stores from
    ints, bools and "p/q" strings and computing with them loads no watched
    module, `fractions` and the `decimal` it imports among them."""
    assert run_fresh(child=LIBRARY_CHILD) == (0, "", set())


def test_a_document_json_refuses_loads_json_for_its_message(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": {}} x')
    code, out, loaded = run_fresh("snf", "--input", str(path))
    assert (code, out) == (1, "") and {"json", "re"} <= loaded


HELP_AND_USAGE = (
    ["--help"], [], ["nope"], ["uct"], ["snf", "--bogus"],
    ["uct", "--input", "c.json", "--mod", "1"],
    ["betti", "--d", "0", "--dp", "1"],
    *([command, "--help"] for command in cli._COMMANDS))


@pytest.mark.parametrize("columns", [None, "30", "40", "200"])
def test_help_and_usage_match_the_stock_formatter(monkeypatch, capsys,
                                                  columns):
    """The argparse parser keeps argparse's own formatter, so its help and
    usage are the stock text; each names the program at every width."""
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)

    seen = []
    for argv in HELP_AND_USAGE:
        with pytest.raises(SystemExit) as stop:
            cli._Reader().parse_args(argv)
        seen.append((stop.value.code, *capsys.readouterr()))
    assert all("usage: exhom" in out + err for _, out, err in seen)


@pytest.mark.parametrize("argv", [argv for argv in HELP_AND_USAGE if argv])
def test_help_and_usage_load_argparse(argv):
    """The argparse fallback is what prints help, usage and errors (an empty
    argv is left out: the child then only builds the parser)."""
    code, _, loaded = run_fresh(*argv)
    assert code in (0, 2) and {"argparse", "gettext"} <= loaded


@pytest.mark.parametrize("asks_help", [False, True])
def test_console_script_path(tmp_path, asks_help):
    """`python -m exhom.cli` calls `main()` with argv None, as the console
    script does: a well-formed run imports no watched module, and `--help`
    imports argparse and gettext (`-X importtime` lists every import; those
    after `runpy`'s are the ones running exhom.cli makes)."""
    path = write(tmp_path, "c.json", {"dims": {"0": 1, "1": 1},
                                      "differentials": {"1": [[2]]}})
    argv = ["uct", "--help"] if asks_help else ["uct", "--input", path,
                                                "--mod", "2"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m",
                          "exhom.cli", *argv], env=env, capture_output=True,
                         text=True, timeout=60)
    order = [line.rsplit("|", 1)[1].strip()
             for line in run.stderr.splitlines()
             if line.startswith("import time:")]
    imported = set(order)
    assert run.returncode == 0
    assert run.stdout.startswith("usage: exhom uct" if asks_help
                                 else "uct: PASS")
    assert "exhom.zlinalg" in imported
    assert {"argparse", "gettext"} & imported == (
        {"argparse", "gettext"} if asks_help else set())
    if not asks_help:
        assert set(order[order.index("runpy") + 1:]).isdisjoint(WATCHED)
