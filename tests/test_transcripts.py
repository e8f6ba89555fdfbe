"""The CLI's transcripts: stdout, stderr and exit code of a fixed corpus of
argv, kept in `tests/transcripts.json` as a sha256 digest of each stream
and the code.  A changed byte on any output path fails here, by block and
argv.

The manifest is a list of blocks.  Each holds the documents its argv read
and how to make them: `gen.build` of `perfbench/gen.py` (a workload, a seed
and a group count; the documents' digest `input_sha256` is checked first)
or the documents themselves, written as JSON (`json`), as text (`text`),
as bytes (`hex`) or as repeated pieces of text (`pieces`).  Documents go
into a fresh temporary directory, written `{tmp}` in the argv and in the
output before it is hashed.  Every case runs `exhom.cli.main` in this
process with COLUMNS=80.  The blocks:

* `bench-<workload>`: every request of `gen.build(<workload>, 1, groups)`;
* `closed-form`: e2, betti and filtration for d, d' in {1, 2, 3} with three
  spectra, both formats, `--compare-paper`, and one case at the caps;
* `argv-corpus`: the fixed corpus `CORPUS` of `tests/test_argv.py`;
* `refusals`: one case per read or refusal message of the documents and
  the commands.

Where the Python version decides part of stderr, the case pins its exit
code and the start of stderr, as {"prefix": text}: json's own refusal text
(kept after "error: invalid JSON: "), and argparse's list of the valid
choices after "invalid choice: 'x' (choose from ", quoted on 3.10.13-3.13.0
and bare on 3.13.13.  Every other stream, help and usage text among them,
has the same bytes on 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13.

Checked as a script with the standard library, `src/` and
`perfbench/gen.py` alone (no pytest):

    PYTHONPATH=src python -S tests/test_transcripts.py

and rewritten, after an intended change of output, with

    PYTHONPATH=src python tests/test_transcripts.py --regenerate

which builds the blocks again (it reads `CORPUS` from `tests/test_argv.py`,
so it needs the test requirements) and runs every case.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

from exhom import cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "transcripts.json")
TMP = "{tmp}"
JSON = "error: invalid JSON: "
WORKLOADS = {"ss-zigzag": 16, "snf-dense": 12, "chain-uct": 16}  # groups


def _gen():
    """perfbench/gen.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _document(doc) -> bytes:
    if "json" in doc:
        return json.dumps(doc["json"]).encode()
    if "hex" in doc:
        return bytes.fromhex(doc["hex"])
    return ("".join(text * count for text, count in doc["pieces"])
            if "pieces" in doc else doc["text"]).encode()


def _write(block, root) -> list:
    """Write the block's documents under root; the argv of its cases with
    `{tmp}` read as root, and for a `build` block a digest mismatch."""
    if "build" in block:
        workload, seed, groups = block["build"]
        made = _gen().build(workload, seed, groups, root)
        if made["input_sha256"] != block["input_sha256"]:
            return [f"{block['name']}: gen.build wrote other documents"]
    for name, doc in block.get("documents", {}).items():
        with open(os.path.join(root, name), "wb") as fh:
            fh.write(_document(doc))
    return []


def _run(argv, root):
    """(exit code, stdout, stderr) of `main(argv)`, `{tmp}` read as root in
    the argv and root written as `{tmp}` in the output."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.replace(TMP, root) for a in argv])
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return (code, *(s.getvalue().replace(root, TMP) for s in (out, err)))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pin(err: str):
    """stderr's digest, or its start where the Python version words the
    rest: json's refusal text ("<what>: line L column C (char N)") and
    argparse's list of choices."""
    if err.startswith(JSON) and ": line " in err:
        return {"prefix": JSON}
    if "invalid choice: " in err:
        return {"prefix": err[:err.index("(choose from ") + 13]}
    return _sha(err)


def _matches(pin, text: str) -> bool:
    return (text.startswith(pin["prefix"]) if isinstance(pin, dict)
            else pin == _sha(text))


def check_block(block) -> list:
    """The block's mismatches, each naming its argv and what differs."""
    with tempfile.TemporaryDirectory() as root:
        misses = _write(block, root)
        for case in block["cases"] if not misses else ():
            code, out, err = _run(case["argv"], root)
            bad = [name for name, ok in (
                ("code", code == case["code"]),
                ("stdout", _matches(case["stdout"], out)),
                ("stderr", _matches(case["stderr"], err))) if not ok]
            if bad:
                misses.append(f"{block['name']}: {case['argv']}: "
                              + ", ".join(bad))
    return misses


def load() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def pytest_generate_tests(metafunc):
    if "block" in metafunc.fixturenames:
        blocks = load()["blocks"]
        metafunc.parametrize("block", blocks, ids=[b["name"] for b in blocks])


def test_transcripts(block):
    assert check_block(block) == []


# ------------------------------------------------------------ regenerate

SPECTRA = ([], ["--m10", "1", "--m01", "2"],
           ["--m10", "2", "--m01", "1", "--m11", "3"])
_CHAIN = {"dims": {"0": 1, "1": 1}, "differentials": {"1": [[2]]}}
_SQUARE = {"0,0": 1, "1,0": 1, "0,1": 1, "1,1": 1}
_ONE = [[1]]


def _double(**fields):
    return {"json": {"max_r": 1, "max_c": 1, "dims": _SQUARE, **fields}}


# one document per read or refusal message: name -> (document, argv with
# {doc} for its path); a document of None is not written
REFUSALS = {
    "missing": (None, ["snf", "--input", "{doc}"]),
    "directory": (None, ["uct", "--input", TMP, "--mod", "2"]),
    "not-utf8": ({"hex": "fffe5b5b315d5d"}, ["snf", "--input", "{doc}"]),
    "crlf": ({"text": '{"matrix": [[2, 4],\r\n [6, 8]]}\r\n'},
             ["snf", "--input", "{doc}"]),
    "cr": ({"text": '{"dims": {"0": 1, "1": 1},\r"differentials": '
                    '{"1": [["2"]]}}\r'},
           ["uct", "--input", "{doc}", "--mod", "2"]),
    "bom": ({"text": "\ufeff[[1]]"}, ["snf", "--input", "{doc}"]),
    "syntax": ({"text": "{not json"}, ["ss", "--input", "{doc}", "--axis",
                                       "col"]),
    "trailing-comma": ({"text": '{"dims": {"0": 1,},\n}'},
                       ["uct", "--input", "{doc}", "--mod", "2"]),
    "trailing-data": ({"text": "[[1]] [[2]]"}, ["snf", "--input", "{doc}"]),
    "too-deep": ({"pieces": [["[", 10 ** 5], ["]", 10 ** 5]]},
                 ["snf", "--input", "{doc}"]),
    "too-many-digits": ({"pieces": [["[[", 1], ["9", 5000], ["]]", 1]]},
                        ["snf", "--input", "{doc}"]),
    "not-an-object": ({"json": [[1]]},
                      ["oppose", "--input", "{doc}", "--n", "0"]),
    "no-dims": ({"json": {}}, ["kunneth", "--a", "{doc}", "--b", "{doc}"]),
    "degree-key": ({"json": {"dims": {"x": 1}}},
                   ["uct", "--input", "{doc}", "--mod", "3"]),
    "cell-key": (_double(horiz={"0;0": _ONE}),
                 ["ss", "--input", "{doc}", "--axis", "row"]),
    "aliased-key": ({"json": {"dims": {"0": 1, "1": 1, "01": 2}}},
                    ["uct", "--input", "{doc}", "--mod", "2"]),
    "dimension": ({"json": {"dims": {"0": True}}},
                  ["kunneth", "--a", "{doc}", "--b", "{doc}"]),
    "total-dimension": ({"json": {"dims": {"0": 5000}}},
                        ["uct", "--input", "{doc}", "--mod", "2"]),
    "tensor-dimension": ({"json": {"dims": {"0": 100}}},
                         ["kunneth", "--a", "{doc}", "--b", "{doc}"]),
    "min-deg": ({"json": {"min_deg": "0", "dims": {"0": 1}}},
                ["uct", "--input", "{doc}", "--mod", "2"]),
    "degree-span": ({"json": {"dims": {"0": 1, "100000": 1}}},
                    ["uct", "--input", "{doc}", "--mod", "2"]),
    "chain-d-o-d": ({"json": {"dims": {"0": 1, "1": 1, "2": 1},
                              "differentials": {"1": _ONE, "2": _ONE}}},
                    ["uct", "--input", "{doc}", "--mod", "2"]),
    "cochain-d-o-d": ({"json": {"dims": {"0": 1, "1": 1, "2": 1},
                                "differentials": {"0": _ONE, "1": _ONE}}},
                      ["kunneth", "--a", "{doc}", "--b", "{doc}"]),
    "max-r": ({"json": {"max_r": True, "max_c": 0, "dims": {}}},
              ["ss", "--input", "{doc}", "--axis", "col"]),
    "negative-grid": ({"json": {"max_r": -1, "max_c": 0, "dims": {}}},
                      ["ss", "--input", "{doc}", "--axis", "col"]),
    "grid-bound": ({"json": {"max_r": 65, "max_c": 0, "dims": {}}},
                   ["oppose", "--input", "{doc}", "--n", "0"]),
    "outside-grid": (_double(dims={"3,0": 1}),
                     ["ss", "--input", "{doc}", "--axis", "col"]),
    "horiz-defect": ({"json": {"max_r": 2, "max_c": 0,
                               "dims": {"0,0": 1, "1,0": 1, "2,0": 1},
                               "horiz": {"0,0": _ONE, "1,0": _ONE}}},
                     ["ss", "--input", "{doc}", "--axis", "col"]),
    "vert-defect": ({"json": {"max_r": 0, "max_c": 2,
                              "dims": {"0,0": 1, "0,1": 1, "0,2": 1},
                              "vert": {"0,0": _ONE, "0,1": _ONE}}},
                    ["ss", "--input", "{doc}", "--axis", "row"]),
    "square-defect": (_double(horiz={"0,0": _ONE, "0,1": _ONE},
                              vert={"0,0": _ONE, "1,0": [[-1]]}),
                      ["oppose", "--input", "{doc}", "--n", "1"]),
    "matrix-document": ({"json": {"rows": [[1]]}},
                        ["snf", "--input", "{doc}"]),
    "not-rows": ({"json": [[1], 2]}, ["snf", "--input", "{doc}"]),
    "row-count": (_double(horiz={"0,0": [[1], [1]]}),
                  ["ss", "--input", "{doc}", "--axis", "col"]),
    "ragged": ({"json": [[1, 2], [3]]}, ["snf", "--input", "{doc}"]),
    "rational": ({"json": [[1, "1.5"]]}, ["snf", "--input", "{doc}"]),
    "fraction": ({"json": {"dims": {"0": 1, "1": 1},
                           "differentials": {"1": [["1/2"]]}}},
                 ["uct", "--input", "{doc}", "--mod", "2"]),
    "oppose-degree": (_double(), ["oppose", "--input", "{doc}", "--n", "3"]),
    "filtration-degree": (None, ["filtration", "--d", "1", "--dp", "1",
                                 "--n", "5"]),
    "paper-odd": (None, ["e2", "--d", "1", "--dp", "1", "--compare-paper"]),
    "uct-undecidable": ({"json": _CHAIN}, [
        "uct", "--input", "{doc}", "--mod", "3317044064679887385961981"]),
    "multiplicity-bound": (None, ["betti", "--d", "1", "--dp", "1", "--m10",
                                  "1" + "0" * 4000]),
}


def _built(workload):
    """The `bench-<workload>` block, its cases not yet run."""
    with tempfile.TemporaryDirectory() as root:
        made = _gen().build(workload, 1, WORKLOADS[workload], root)
    return {"name": f"bench-{workload}",
            "build": [workload, 1, WORKLOADS[workload]],
            "input_sha256": made["input_sha256"],
            "cases": [{"argv": [a.replace(root, TMP) for a in r["argv"]]}
                      for r in made["warmup"] + made["requests"]]}


def _closed_form():
    cases = []
    for d in (1, 2, 3):
        for dp in (1, 2, 3):
            size = ["--d", str(d), "--dp", str(dp)]
            for spectrum in SPECTRA:
                for command in ("e2", "betti"):
                    cases += [[command, *size, *spectrum, "--format", f]
                              for f in ("machine", "table")]
                cases.append(["e2", *size, *spectrum, "--compare-paper"])
                cases += [["filtration", *size, *spectrum, "--n", str(n)]
                          for n in range(d + dp + 1)]
    cases.append(["betti", "--d", "64", "--dp", "64", "--m10", "3", "--m01",
                  "5", "--m11", str(10 ** 3999 - 1), "--format", "table"])
    return {"name": "closed-form", "cases": [{"argv": a} for a in cases]}


def _argv_corpus():
    sys.path.insert(0, HERE)
    import test_argv
    paths = {name[0]: f"{TMP}/{name}" for name in test_argv.DOCUMENTS}
    return {"name": "argv-corpus",
            "documents": {name: {"json": doc}
                          for name, doc in test_argv.DOCUMENTS.items()},
            "cases": [{"argv": [token.format(**paths) for token in argv]}
                      for argv in test_argv.CORPUS]}


def _refusals():
    documents, cases = {}, []
    for name, (doc, argv) in REFUSALS.items():
        if doc is not None:
            documents[f"{name}.json"] = doc
        path = f"{TMP}/{name}.json"
        cases.append({"argv": [a.replace("{doc}", path) for a in argv]})
    return {"name": "refusals", "documents": documents, "cases": cases}


def regenerate() -> dict:
    blocks = [*map(_built, WORKLOADS), _closed_form(), _argv_corpus(),
              _refusals()]
    for block in blocks:
        with tempfile.TemporaryDirectory() as root:
            assert _write(block, root) == []
            for case in block["cases"]:
                code, out, err = _run(case["argv"], root)
                case.update(code=code, stdout=_sha(out), stderr=_pin(err))
    return {"blocks": blocks}


def _dump(manifest) -> str:
    """The manifest as JSON with one case to a line."""
    blocks = [json.dumps({k: v for k, v in block.items() if k != "cases"})[:-1]
              + ', "cases": [\n' + ",\n".join(map(json.dumps, block["cases"]))
              + "]}" for block in manifest["blocks"]]
    return '{"blocks": [\n' + ",\n".join(blocks) + "\n]}\n"


def main(argv) -> int:
    if argv == ["--regenerate"]:
        with open(MANIFEST, "w", encoding="utf-8") as fh:
            fh.write(_dump(regenerate()))
        return 0
    if argv:
        print("usage: test_transcripts.py [--regenerate]", file=sys.stderr)
        return 2
    blocks, misses = load()["blocks"], []
    for block in blocks:
        misses += check_block(block)
        print(f"{block['name']}: {len(block['cases'])} cases")
    print("\n".join(misses or ["transcripts: PASS"]))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
