"""Command-line front end.

One binary with subcommands; machine output is line-oriented and bit-stable.
Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import operator
import sys
from math import inf

from . import complexes, spectral, steinberg
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


class _Formatter(argparse.HelpFormatter):
    """HelpFormatter that asks shutil for the terminal width only on use."""

    def __init__(self, prog):
        super().__init__(prog, width=80)
        del self._width, self._max_help_position

    def __getattr__(self, name):  # _width and _max_help_position, once
        stock = argparse.HelpFormatter(self._prog)
        for key in "_width", "_max_help_position":
            setattr(self, key, getattr(stock, key))
        return getattr(stock, name)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _int_in(what: str, low: int, high: float = inf):
    """argparse type: an integer in [low, high], else a usage error naming
    `what`."""
    def parse(text: str) -> int:
        try:
            if low <= int(text) <= high:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


def _modulus(text: str) -> int:
    """argparse type for --mod: an integer >= 2 whose primality is decidable."""
    m = _int_in("an integer >= 2", 2)(text)
    if m >= _MR_EXACT_BELOW:  # is_prime decides every m below the bound
        try:
            is_prime(m)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return m


def _multiplicity(text: str) -> int:
    """argparse type for --m10, --m01 and --m11: below 10**4000, so that every
    sum e2, betti and filtration print stays under the int -> str limit."""
    if _int_in("a non-negative integer", 0)(text) < 10 ** 4000:
        return int(text)
    raise argparse.ArgumentTypeError("multiplicities must be below 10**4000")


def _spectrum_args(p):
    top = steinberg.MAX_SPACE_DIM
    dimension = _int_in(f"a positive integer at most {top}", 1, top)
    p.add_argument("--d", type=dimension, required=True)
    p.add_argument("--dp", type=dimension, required=True)
    for flag in "--m10", "--m01", "--m11":
        p.add_argument(flag, type=_multiplicity, default=0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
    parser = _Parser(prog="exhom",
                     description="exact homological algebra calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("e2", help="second-page grid from the four-term sum")
    _spectrum_args(p)
    p.add_argument("--compare-paper", action="store_true")
    p.add_argument("--format", choices=["table", "machine"], default="machine")

    p = sub.add_parser("betti", help="Betti profile with filtration dims")
    _spectrum_args(p)
    p.add_argument("--format", choices=["table", "machine"], default="machine")

    p = sub.add_parser("filtration", help="covering filtration dims in one degree")
    _spectrum_args(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("ss", help="spectral sequence of a double complex")
    p.add_argument("--input", required=True)
    p.add_argument("--axis", choices=["row", "col"], required=True)
    p.add_argument("--pages", action="store_true")

    p = sub.add_parser("kunneth", help="Kunneth check on two rational complexes")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("uct", help="universal-coefficient check mod m")
    p.add_argument("--input", required=True)
    p.add_argument("--mod", type=_modulus, required=True)

    p = sub.add_parser("snf", help="Smith normal form diagonal of a matrix")
    p.add_argument("--input", required=True)

    p = sub.add_parser("oppose", help="oppositeness of the two filtrations")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise DocumentError(f"cannot read {path}: not UTF-8 text") from None


@functools.lru_cache(maxsize=8)
def _cell_lines(max_p: int, max_q: int):
    """The renderer of the `ss` and `e2 --format machine` grids: each cell's
    "p q dim" line, p then q ascending, from the nonzero (cell, dim)s."""
    labels = [f"{p} {q} " for p in range(max_p + 1) for q in range(max_q + 1)]

    def block(dims) -> str:
        column = ["0"] * len(labels)
        for (p, q), dim in dims:
            column[p * (max_q + 1) + q] = str(dim)
        return "\n".join(map(operator.add, labels, column))
    return block


def _spectrum(args) -> steinberg.InducedSpectrum:
    return steinberg.InducedSpectrum(args.m10, args.m01, args.m11)


def _cmd_e2(args, out) -> int:
    if args.compare_paper:
        try:
            report = steinberg.paper_table_diff(args.d, args.dp, _spectrum(args))
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return USAGE_ERROR
        print(report.render(), file=out)
        return 0
    table = steinberg.e2_table(args.d, args.dp, _spectrum(args))
    top = args.d + args.dp
    if args.format == "machine":
        print(_cell_lines(top, top)(table.grid.items()), file=out)
    else:
        print("\n".join(steinberg.render_grids(top, table.at)[0]), file=out)
    return 0


def _cmd_betti(args, out) -> int:
    profile = steinberg.betti_profile(args.d, args.dp, _spectrum(args))
    print(" ".join(map(str, profile.b)), file=out)
    if args.format == "table":
        for n, dims in enumerate(profile.filtrations):
            print(f"n={n} b={profile.b[n]} F=" + " ".join(map(str, dims)),
                  file=out)
    return 0


def _cmd_filtration(args, out) -> int:
    try:
        dims = steinberg.covering_filtration_dims(args.d, args.dp,
                                                  _spectrum(args), args.n)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    print(" ".join(map(str, dims)), file=out)
    return 0


def _cmd_ss(args, out) -> int:
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
    out.write("\n".join(lines) + "\n")
    return 0


def _cmd_kunneth(args, out) -> int:
    A = parse_cochain_document(_read(args.a))
    B = parse_cochain_document(_read(args.b))
    check_tensor_product(A, B)
    report = complexes.kunneth_check(A, B)
    print(report.render(), file=out)
    return 0 if report.passed else VALIDATION_ERROR


def _cmd_uct(args, out) -> int:
    C = parse_chain_document(_read(args.input))
    report = complexes.uct_check(C, args.mod)
    print(report.render(), file=out)
    return 0 if report.passed else VALIDATION_ERROR


def _cmd_snf(args, out) -> int:
    from decimal import Decimal
    A = parse_int_matrix_document(_read(args.input))
    # str(Decimal(d)) is str(d) without the int-string digit limit, which a
    # product of entries under that limit can pass
    print(" ".join(str(Decimal(d)) for d in invariant_factors(A)), file=out)
    return 0


def _cmd_oppose(args, out) -> int:
    K = parse_double_complex_document(_read(args.input))
    if args.n < 0 or args.n > K.max_r + K.max_c:
        print(f"error: degree {args.n} outside [0, {K.max_r + K.max_c}]",
              file=sys.stderr)
        return USAGE_ERROR
    F = spectral.filtration_on_total(K, spectral.COLUMN, args.n)
    G = spectral.filtration_on_total(K, spectral.ROW, args.n)
    print("col dims " + " ".join(map(str, F.dims())), file=out)
    print("row dims " + " ".join(map(str, G.dims())), file=out)
    opposite, criterion = spectral._verdicts(F, G)
    print(f"opposite {str(opposite).lower()}", file=out)
    print(f"dimension_criterion {str(criterion).lower()}", file=out)
    return 0


_COMMANDS = {
    "e2": _cmd_e2,
    "betti": _cmd_betti,
    "filtration": _cmd_filtration,
    "ss": _cmd_ss,
    "kunneth": _cmd_kunneth,
    "uct": _cmd_uct,
    "snf": _cmd_snf,
    "oppose": _cmd_oppose,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
