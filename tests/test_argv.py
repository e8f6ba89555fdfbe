"""`exhom.cli` reads a well-formed argv off its grammar table and hands any
other to argparse.  The reader either defers or returns exactly the
attributes argparse returns, and `main` exits and prints the same whether
the reader or argparse parsed its argv: on a fixed corpus (every benchmark
request shape, help, bad, repeated, abbreviated and "=" options, "--",
negative values, invalid choices and the bounds of the value checks) and on
random argv built from each command's flags."""

import contextlib
import io
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from exhom import cli
from test_selfcheck import _gen

ARGPARSE = cli._argparse_parser()
BOUND = str(10 ** 4000)
UNDECIDABLE = "3317044064679887385961981"

DOCUMENTS = {
    "k.json": {"max_r": 2, "max_c": 1,
               "dims": {"0,1": 1, "1,1": 1, "1,0": 1, "2,0": 1},
               "horiz": {"0,1": [[1]], "1,0": [[1]]}, "vert": {"1,0": [[1]]}},
    "c.json": {"dims": {"0": 2, "1": 2}, "differentials": {"1": [[2, 0],
                                                                [0, 3]]}},
    "q.json": {"dims": {"0": 2, "1": 1}, "differentials": {"0": [["1", "1"]]}},
    "a.json": [[2, 4], [6, 8]],
}

# {k}, {c}, {q} and {a} stand for the paths of the documents above
CORPUS = [
    [], ["nope"], ["E2"], ["--help"], ["-h"], ["--version"],
    *([command] for command in cli._GRAMMAR),
    *([command, "--help"] for command in cli._GRAMMAR),
    ["snf", "-h"], ["snf", "--input", "{a}", "--help"],
    ["e2", "--d", "2", "--dp", "2"],
    ["e2", "--d", "2", "--dp", "2", "--m11", "1", "--format", "table"],
    ["e2", "--compare-paper", "--dp", "2", "--d", "2"],
    ["betti", "--d", "1", "--dp", "1"],
    ["betti", "--d", "3", "--dp", "5", "--format", "table"],
    ["betti", "--d", "1", "--dp", "1", "--m10", str(10 ** 4000 - 1)],
    ["betti", "--d", "1", "--dp", "1", "--m10", BOUND],
    ["filtration", "--d", "1", "--dp", "1", "--n", "2"],
    ["filtration", "--d", "1", "--dp", "1", "--n", "-1"],
    ["ss", "--input", "{k}", "--axis", "col"],
    ["ss", "--pages", "--axis", "row", "--input", "{k}"],
    ["kunneth", "--a", "{q}", "--b", "{q}"],
    ["uct", "--input", "{c}", "--mod", "6"],
    ["uct", "--mod", "1000000000000000003", "--input", "{c}"],
    ["uct", "--input", "{c}", "--mod", UNDECIDABLE],
    ["uct", "--input", "{c}", "--mod", "1"],
    ["uct", "--input", "{c}", "--mod", "two"],
    ["uct", "--input", "{c}", "--mod", "-2"],
    ["oppose", "--input", "{k}", "--n", "5"],
    ["oppose", "--input", "{k}", "--n", "-1"],
    ["oppose", "--input", "{k}", "--n", " 1"],
    ["snf", "--bogus"], ["snf", "--input", "{a}", "--bogus"],
    ["snf", "--input", "{a}", "extra"], ["snf", "{a}"],
    ["snf", "--input", "{a}", "--mod", "2"], ["--input", "{a}", "snf"],
    ["snf", "--input", "{a}", "--input", "{a}"],
    ["ss", "--input", "{k}", "--axis", "col", "--axis", "row"],
    ["ss", "--input", "{k}", "--axis", "col", "--pages", "--pages"],
    ["ss", "--input", "{k}", "--axis", "col", "--pages", "yes"],
    ["snf", "--in", "{a}"], ["uct", "--inp", "{c}", "--mo", "2"],
    ["e2", "--d", "2", "--dp", "2", "--comp"],
    ["e2", "--d", "1", "--dp", "1", "--m1", "1"],
    ["ss", "--input", "{k}", "--ax", "col"],
    ["snf", "--input={a}"], ["uct", "--input", "{c}", "--mod=2"],
    ["e2", "--d=2", "--dp=2"],
    ["snf", "--", "{a}"], ["snf", "--input", "{a}", "--"],
    ["--", "snf", "--input", "{a}"],
    ["e2", "--d", "-1", "--dp", "1"],
    ["e2", "--d", "1", "--dp", "1", "--m10", "-1"],
    ["e2", "--d", "x", "--dp", "1"], ["e2", "--d", "65", "--dp", "1"],
    ["e2", "--d", "0", "--dp", "1"],
    ["filtration", "--d", "1", "--dp", "1", "--n", "x"],
    ["ss", "--input", "{k}", "--axis", "diag"],
    ["ss", "--input", "{k}", "--axis", ""],
    ["e2", "--d", "1", "--dp", "1", "--format", "json"],
    ["ss", "--input", "{k}", "--axis"], ["uct", "--input"],
    ["uct", "--input", "{c}"], ["snf", "--input", ""],
    ["snf", "--input", "-x"], ["snf", "--input", "-"],
    ["uct", "--mod", "2", "--input", "--mod"],
    ["snf", "--input", "missing.json"],
]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    for name, doc in DOCUMENTS.items():
        (root / name).write_text(json.dumps(doc))
    return {name[0]: str(root / name) for name in DOCUMENTS}


def parsed_by_argparse(argv):
    """argparse's attributes for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(ARGPARSE.parse_args(argv))
        except SystemExit:
            return None


def run_main(argv, forced=False):
    """(exit code, stdout, stderr) of `main(argv)`; forced, every argv is
    parsed by argparse."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if forced:
            mp.setattr(cli._Reader, "_from_grammar",
                       staticmethod(lambda argv: None))
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check(argv):
    """The reader defers argv or agrees with argparse, and `main` is the
    same either way; True when the reader accepted argv."""
    ours = cli._Reader._from_grammar(list(argv))
    if ours is not None:
        assert vars(ours) == parsed_by_argparse(argv), argv
    assert run_main(argv) == run_main(argv, forced=True), argv
    return ours is not None


@pytest.mark.parametrize("columns", [None, "30", "200"])
def test_corpus(monkeypatch, paths, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    accepted = [check([token.format(**paths) for token in argv])
                for argv in CORPUS]
    assert sum(accepted) == 16  # the well-formed ones


# "--" after an option's "=", beside -h, then bare: first, between options,
# last and as a value
DASHES = [["snf", "--input=--"], ["ss", "--input={k}", "--axis=--"],
          ["uct", "--input={c}", "--mod=--"], ["snf", "--inp=--"],
          ["ss", "--input={k}", "--axis", "col", "--pages=--"], ["-h", "--"],
          ["--", "snf", "--input", "{a}"],
          ["uct", "--input", "{c}", "--", "--mod", "2"],
          ["snf", "--input", "{a}", "--"], ["snf", "--input", "--"]]
DASHES_REFUSED = ("usage: exhom [-h] {" + ",".join(cli._GRAMMAR) + "} ...\n"
                  "error: '--' is not part of exhom's command line\n")


@pytest.mark.parametrize("argv", DASHES)
def test_an_option_valued_dashes_is_refused_as_a_missing_value(monkeypatch,
                                                               paths, argv):
    """Wherever "--" stands, alone or after an option's "=", `main` refuses
    the argv with one usage error, which argparse alone words differently
    from one Python release to the next."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = [token.format(**paths) for token in argv]
    assert run_main(argv) == (2, "", DASHES_REFUSED)
    check(argv)


@pytest.mark.parametrize("workload", ["ss-zigzag", "snf-dense", "chain-uct"])
def test_every_benchmark_request_is_read_without_argparse(tmp_path,
                                                          workload):
    manifest = _gen().build(workload, 3, 4, str(tmp_path))
    for request in manifest["warmup"] + manifest["requests"]:
        assert check(request["argv"]), request["argv"]


NOISE = ["--help", "-h", "--bogus", "--", "-", "x", "--in", "--m1", "-1",
         "--input", "--mod"]
VALUES = ["0", "1", "2", "3", "6", "64", "65", "-1", " 1", "x", "", "col",
          "row", "table", "machine", "diag", "1e3", BOUND, UNDECIDABLE,
          "--", "--d", "-", "-x", "--input"]
GOOD = {"--d": ["1", "2"], "--dp": ["1", "3"], "--m10": ["0", "2"],
        "--m01": ["0", "1"], "--m11": ["0", "1"], "--n": ["0", "1", "2"],
        "--format": ["table", "machine"], "--axis": ["col", "row"],
        "--mod": ["2", "3", "6"]}
INPUT = {"ss": "k", "oppose": "k", "uct": "c", "snf": "a"}


@st.composite
def argvs(draw, paths):
    """A command (or not), its options in any order, mostly with values
    that pass, some left out, and stray, repeated and "=" tokens put in."""
    command = draw(st.sampled_from([*cli._GRAMMAR, "nope", "-h"]))
    options = cli._GRAMMAR.get(command, (None, {}))[1]
    argv = [command]
    for flag in draw(st.permutations(list(options))):
        if draw(st.integers(0, 9)) == 0:
            continue
        good = GOOD.get(flag, [paths[INPUT.get(command, "q")]])
        value = draw(st.sampled_from(good) if draw(st.integers(0, 2))
                     else st.sampled_from(VALUES))
        if options[flag][0] is None:
            argv.append(flag)
        elif draw(st.integers(0, 9)) == 0:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    for _ in range(draw(st.integers(0, 2))):
        token = draw(st.sampled_from(NOISE + VALUES) if len(argv) < 2
                     else st.sampled_from([*NOISE, *VALUES, argv[1]]))
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=300, deadline=timedelta(seconds=15))
@given(data=st.data())
def test_random_argv(paths, data):
    check(data.draw(argvs(paths)))
