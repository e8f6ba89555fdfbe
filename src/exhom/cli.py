"""Command-line front end.

One binary with subcommands; machine output is line-oriented and bit-stable.
Exit codes: 0 success, 1 validation failure, 2 usage error; `main` alone
maps a refusal (a ValueError) to 1 or 2.  A well-formed
argv is read straight off the grammar table `_GRAMMAR`.  Any other that
holds `--`, alone or as an option's value after `=`, is refused with one
usage error; the rest (help, abbreviations, `--opt=value`, repeated
options, negative values, every other refusal) goes to an argparse parser
built from the table on first use.
`steinberg` is imported on first use too, by e2, betti and filtration.
Documents are read as bytes.
"""

import sys
from _operator import add
from math import inf

from . import complexes, spectral
from ._record import Namespace, cached
from .documents import (
    DocumentError,
    check_tensor_product,
    parse_chain_document,
    parse_cochain_document,
    parse_double_complex_document,
    parse_int_matrix_document,
)
from .zlinalg import _MR_EXACT_BELOW, invariant_factors, is_prime

USAGE_ERROR = 2
VALIDATION_ERROR = 1


def _int_in(what: str, low: int, high: float = inf):
    """Check: an integer in [low, high], else refused naming `what`."""
    def parse(text: str) -> int:
        try:
            if low <= int(text) <= high:
                return int(text)
        except ValueError:
            pass
        raise ValueError(f"expected {what}, got {text!r}")
    return parse


def _modulus(text: str) -> int:
    """Check for --mod: an integer >= 2 whose primality is decidable."""
    m = _int_in("an integer >= 2", 2)(text)
    if m >= _MR_EXACT_BELOW:  # is_prime decides every m below the bound
        is_prime(m)  # refuses an m it cannot decide
    return m


def _multiplicity(text: str) -> int:
    """Check for --m10, --m01 and --m11: below 10**4000, so that every sum
    e2, betti and filtration print stays under the int -> str limit."""
    if _int_in("a non-negative integer", 0)(text) < 10 ** 4000:
        return int(text)
    raise ValueError("multiplicities must be below 10**4000")


MAX_SPACE_DIM = 64  # largest d and d' that e2, betti and filtration take
_DIMENSION = _int_in(f"a positive integer at most {MAX_SPACE_DIM}", 1,
                     MAX_SPACE_DIM)
_SPECTRUM = {"--d": (_DIMENSION, None), "--dp": (_DIMENSION, None),
             "--m10": (_multiplicity, 0), "--m01": (_multiplicity, 0),
             "--m11": (_multiplicity, 0)}
_FORMAT = {"--format": (("table", "machine"), "machine")}

# The one declaration of the command line: each command's help and its
# options {flag: (check, default)}.  The check is a function of the value's
# text that raises ValueError on a bad one, a tuple of the choices, or None
# for a switch (True when given); a default of None means required.
_GRAMMAR = {
    "e2": ("second-page grid from the four-term sum",
           {**_SPECTRUM, "--compare-paper": (None, False), **_FORMAT}),
    "betti": ("Betti profile with filtration dims", {**_SPECTRUM, **_FORMAT}),
    "filtration": ("covering filtration dims in one degree",
                   {**_SPECTRUM, "--n": (int, None)}),
    "ss": ("spectral sequence of a double complex",
           {"--input": (str, None), "--axis": (("row", "col"), None),
            "--pages": (None, False)}),
    "kunneth": ("Kunneth check on two rational complexes",
                {"--a": (str, None), "--b": (str, None)}),
    "uct": ("universal-coefficient check mod m",
            {"--input": (str, None), "--mod": (_modulus, None)}),
    "snf": ("Smith normal form diagonal of a matrix",
            {"--input": (str, None)}),
    "oppose": ("oppositeness of the two filtrations",
               {"--input": (str, None), "--n": (int, None)}),
}


def _argparse_parser():
    """The argparse parser of `_GRAMMAR`, built on first use for what
    `_Reader` leaves to it: help, abbreviations, `--opt=value`, repeated
    options, negative values and every refusal but the `--` one."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(USAGE_ERROR, f"error: {message}\n")

    def typed(check):  # a refusal is argparse's usage error, its text kept
        def parse(text):
            try:
                return check(text)
            except ValueError as e:  # int's keeps "invalid int value"
                raise e if check is int else argparse.ArgumentTypeError(str(e))
        parse.__name__ = check.__name__
        return parse

    parser = Parser(prog="exhom",
                    description="exact homological algebra calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in _GRAMMAR.items():
        p = sub.add_parser(command, help=text)
        for flag, (check, default) in options.items():
            p.add_argument(flag, default=default, required=default is None, **(
                {"action": "store_true"} if check is None else
                {"choices": check} if isinstance(check, tuple) else
                {"type": typed(check)}))
    return parser


class _Reader:
    """Reads a well-formed argv off `_GRAMMAR` into the attributes argparse
    would return, refuses any other that holds `--`, and hands the rest to
    its own argparse parser."""

    def parse_args(self, argv=None):
        argv = sys.argv[1:] if argv is None else list(argv)
        # argparse's reading of "--" and "--opt=--" varies by Python release
        if (args := self._from_grammar(argv)) is None and any(
                "--" in (t, t.partition("=")[2]) for t in argv if t[:1] == "-"):
            self._argparse.error("'--' is not part of exhom's command line")
        return args or self._argparse.parse_args(argv)

    @cached
    def _argparse(self):
        return _argparse_parser()

    @staticmethod
    def _from_grammar(argv):
        if not argv or argv[0] not in _GRAMMAR:
            return None
        options, given, tokens = _GRAMMAR[argv[0]][1], {}, iter(argv[1:])
        for flag in tokens:
            if flag not in options or flag in given:
                return None
            check = options[flag][0]
            if check is None:
                given[flag] = True
            elif (text := next(tokens, "-")).startswith("-"):
                return None
            else:
                try:  # tuple.index refuses a text that is not a choice
                    given[flag] = (check[check.index(text)]
                                   if isinstance(check, tuple) else check(text))
                except ValueError:
                    return None
        values = {flag[2:].replace("-", "_"): given.get(flag, default)
                  for flag, (_, default) in options.items()}  # by dest
        return (None if None in values.values()  # a required one is missing
                else Namespace(command=argv[0], **values))


_READER = _Reader()


def build_parser() -> _Reader:
    """The parser every call shares; its argparse part is built on first
    use."""
    return _READER


def _read(path: str) -> str:
    """The file as text mode reads it: UTF-8 with universal newlines."""
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise DocumentError(f"cannot read {path}: not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


_BLOCKS: dict = {}  # _cell_lines' renderers by grid shape, at most 8


def _cell_lines(max_p: int, max_q: int):
    """The renderer of the `ss` and `e2 --format machine` grids: each cell's
    "p q dim" line, p then q ascending, from the nonzero (cell, dim)s."""
    if (max_p, max_q) in _BLOCKS:
        return _BLOCKS[max_p, max_q]
    labels = [f"{p} {q} " for p in range(max_p + 1) for q in range(max_q + 1)]

    def block(dims) -> str:
        column = ["0"] * len(labels)
        for (p, q), dim in dims:
            column[p * (max_q + 1) + q] = str(dim)
        return "\n".join(map(add, labels, column))
    if len(_BLOCKS) == 8:
        _BLOCKS.pop(next(iter(_BLOCKS)))  # the oldest
    return _BLOCKS.setdefault((max_p, max_q), block)


def _spectrum(args):
    from . import steinberg  # on first use: e2, betti and filtration only
    return steinberg.InducedSpectrum(args.m10, args.m01, args.m11)


def _cmd_e2(args) -> int:
    from . import steinberg
    if args.compare_paper:
        print(steinberg.paper_table_diff(args.d, args.dp,
                                         _spectrum(args)).render())
        return 0
    table = steinberg.e2_table(args.d, args.dp, _spectrum(args))
    top = args.d + args.dp
    if args.format == "machine":
        print(_cell_lines(top, top)(table.grid.items()))
    else:
        print("\n".join(steinberg.render_grids(top, table.at)[0]))
    return 0


def _cmd_betti(args) -> int:
    from . import steinberg
    profile = steinberg.betti_profile(args.d, args.dp, _spectrum(args))
    print(" ".join(map(str, profile.b)))
    if args.format == "table":
        for n, dims in enumerate(profile.filtrations):
            print(f"n={n} b={profile.b[n]} F=" + " ".join(map(str, dims)))
    return 0


def _cmd_filtration(args) -> int:
    from . import steinberg
    dims = steinberg.covering_filtration_dims(args.d, args.dp,
                                              _spectrum(args), args.n)
    print(" ".join(map(str, dims)))
    return 0


def _cmd_ss(args) -> int:
    K = parse_double_complex_document(_read(args.input))
    axis = spectral.ROW if args.axis == "row" else spectral.COLUMN
    pages = spectral.spectral_pages(K, axis)
    block = _cell_lines(*((K.max_r, K.max_c) if axis == spectral.COLUMN
                          else (K.max_c, K.max_r)))
    lines, grid = [], None
    if args.pages:
        for r, page in sorted(pages.pages.items()):
            if page is not grid:  # pages past the stable one share a dict
                grid, text = page, block((c, d) for c, (d, _) in page.items())
            lines += (f"page {r}", text)
    # with --pages, the last text rendered is the stable page's: the limit's
    lines += (f"limit (stable at page {pages.stable_page})",
              text if args.pages else block(pages.limit.items()))
    print("\n".join(lines))
    return 0


def _cmd_kunneth(args) -> int:
    A = parse_cochain_document(_read(args.a))
    B = parse_cochain_document(_read(args.b))
    check_tensor_product(A, B)
    report = complexes.kunneth_check(A, B)
    print(report.render())
    return 0 if report.passed else VALIDATION_ERROR


def _cmd_uct(args) -> int:
    C = parse_chain_document(_read(args.input))
    report = complexes.uct_check(C, args.mod)
    print(report.render())
    return 0 if report.passed else VALIDATION_ERROR


_PIECE = 10 ** 512  # str prints below it: 640 digits is the lowest limit


def _digits(d: int) -> str:
    """str(d) of a d >= 0 without the int-string digit limit, which a
    product of entries under it can pass: 512 digits at a time."""
    pieces = []
    while d >= _PIECE:
        d, r = divmod(d, _PIECE)
        pieces.append(f"{r:0512d}")
    return str(d) + "".join(reversed(pieces))


def _cmd_snf(args) -> int:
    A = parse_int_matrix_document(_read(args.input))
    print(" ".join(map(_digits, invariant_factors(A))))
    return 0


def _cmd_oppose(args) -> int:
    K = parse_double_complex_document(_read(args.input))
    if args.n < 0 or args.n > K.max_r + K.max_c:
        raise ValueError(f"degree {args.n} outside [0, {K.max_r + K.max_c}]")
    F = spectral.filtration_on_total(K, spectral.COLUMN, args.n)
    G = spectral.filtration_on_total(K, spectral.ROW, args.n)
    print("col dims " + " ".join(map(str, F.dims())))
    print("row dims " + " ".join(map(str, G.dims())))
    opposite, criterion = spectral._verdicts(F, G)
    print(f"opposite {str(opposite).lower()}")
    print(f"dimension_criterion {str(criterion).lower()}")
    return 0


_COMMANDS = {command: globals()["_cmd_" + command] for command in _GRAMMAR}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as e:  # a bad document exits 1, any other refusal 2
        print(f"error: {e}", file=sys.stderr)
        return (VALIDATION_ERROR if isinstance(e, DocumentError)
                else USAGE_ERROR)


if __name__ == "__main__":
    sys.exit(main())
