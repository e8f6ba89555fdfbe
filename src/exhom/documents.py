"""File formats: JSON documents for complexes, double complexes and matrices.

Matrix entries are strings holding an integer or a "p/q" exact rational,
each with an optional sign; plain JSON integers are accepted on input.  A
"p/q" string is split into two ints and reduced, so no document imports
`fractions`, and read by json's C scanner, so none imports `json`, `re` or
`types` either.  One routine (`_write_entries`) reads every matrix once,
over the lcm of its entries' denominators, into a `qlinalg.RatMatrix`, or
for a double complex into the columns of its total complex, one store a
degree.  Every entry is type-checked, but only the nonzero ones are stored.
"""

from _json import make_scanner
from itertools import chain, compress
from math import gcd, inf, lcm, nan

from ._record import Namespace
from .complexes import (
    CochainComplex,
    IntChainComplex,
    _build,
    _nonzero_composite,
    _place,
)
from .qlinalg import RatMatrix, _rational
from .spectral import COLUMN, ROW, DoubleComplex, _check_grid, _checked

MAX_DEGREE_SPAN = 1024  # largest max_deg - min_deg a complex document may span
# largest total dimension (summed dims) of a complex or double complex
# document, and of the tensor product of the two complexes `kunneth` reads
MAX_TOTAL_DIM = 4096
_LIST, _INT = frozenset({list}), frozenset({int})  # the types of a fast read
_SPACE = " \t\n\r"  # JSON's whitespace

# the scanner of json.loads, on the settings of json's default decoder
_scan = make_scanner(Namespace(
    strict=True, object_hook=None, object_pairs_hook=None,
    parse_float=float, parse_int=int, parse_constant={
        "NaN": nan, "Infinity": inf, "-Infinity": -inf}.__getitem__))


class DocumentError(ValueError):
    """Raised on malformed or invalid input documents."""


def _entry(raw, where: str, i: int, j: int, integral: bool):
    """Entry [i][j]: a JSON int or a string holding an integer or "p/q",
    each with an optional sign, as an int when whole, else as (p, q) in
    lowest terms.  Anything else (decimals, exponents, blanks, underscores,
    q = 0, too many digits) is malformed; with `integral`, so is a
    fraction."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    try:  # None fails to unpack; int refuses a part past the digit limit
        p, q = _rational(raw) if isinstance(raw, str) else None
    except (TypeError, ValueError):
        q = 0
    if not q:
        raise DocumentError(f"malformed rational at {where}[{i}][{j}]: "
                            f"{raw!r}")
    g = gcd(p, q)
    p, q = p // g, q // g
    if q == 1:
        return p
    if integral:
        raise DocumentError(f"non-integer entry at {where}[{i}][{j}]: {p}/{q}")
    return p, q


def _write_entries(raw, rows: int, cols: int, where: str, integral: bool,
                   columns, fracs: list, to: int = 0, sign: int = 1) -> None:
    """Write sign times a matrix's nonzero entries into `columns`, row i at
    key to + i, each "p/q" to `fracs` as (column, key, sign p, q) instead."""
    if not isinstance(raw, list) or not _LIST.issuperset(map(type, raw)):
        raise DocumentError(f"matrix at {where} must be an array of arrays")
    if len(raw) != rows:
        raise DocumentError(f"shape mismatch at {where}: got {len(raw)} rows, "
                            f"expected {rows}x{cols}")
    if not {cols}.issuperset(map(len, raw)):
        i = next(i for i, row in enumerate(raw) if len(row) != cols)
        raise DocumentError(f"shape mismatch at {where}: row {i} has "
                            f"{len(raw[i])} entries, expected {rows}x{cols}")
    if not _INT.issuperset(map(type, chain.from_iterable(raw))):
        read = []
        for i, row in enumerate(raw):
            row = [_entry(x, where, i, j, integral) for j, x in enumerate(row)]
            fracs += [(columns[j], to + i, sign * x[0], x[1])
                      for j, x in enumerate(row) if type(x) is tuple]
            read.append([0 if type(x) is tuple else x for x in row])
        raw = read
    js = range(cols)
    for i, row in compress(enumerate(raw, to), map(any, raw)):
        for j in compress(js, row):  # compress skips zeros in C
            columns[j][i] = sign * row[j]


def _over_lcm(columns, fracs: list) -> int:
    """Write `columns` and `fracs` over the lcm of their dens; return it."""
    den = lcm(*[q for *_, q in fracs]) if fracs else 1
    if den > 1:
        for col in columns:
            for i in col:
                col[i] *= den
        for col, i, p, q in fracs:
            col[i] = p * (den // q)
    return den


def _parse_matrix(raw, rows: int, cols: int, where: str,
                  integral: bool = False) -> RatMatrix:
    """The column store of a matrix; with `integral`, over den 1."""
    columns, fracs = tuple([{} for _ in range(cols)]), []
    _write_entries(raw, rows, cols, where, integral, columns, fracs)
    return RatMatrix(rows, cols, columns, _over_lcm(columns, fracs))


def _load_json(text: str):
    """`json.loads(text)`, scanned without importing `json`; any text the
    scanner refuses, and one with data after its value, goes to json.loads
    itself, so each refusal keeps json's own text."""
    try:
        doc, end = _scan(text, len(text) - len(text.lstrip(_SPACE)))
        if not text[end:].strip(_SPACE):
            return doc
    except (StopIteration, ValueError, RecursionError):
        pass
    import json
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer past Python's int-string digit limit
        raise DocumentError("invalid JSON: an integer literal has too many "
                            "digits") from None


def _load_object(text: str) -> dict:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    return doc


def _map_field(doc, key, required=False) -> dict:
    """The JSON object under `key`; an absent optional field is empty."""
    raw = doc.get(key)
    if raw is None and not required:
        return {}
    if not isinstance(raw, dict):
        raise DocumentError(f"missing or malformed '{key}' map")
    return raw


def _degree_key(k: str, where: str) -> int:
    try:
        return int(k)
    except ValueError:
        raise DocumentError(f"malformed degree key {k!r} in '{where}'") from None


def _cell_key(k: str, where: str) -> tuple[int, int]:
    try:
        r, s = map(int, k.split(","))  # a count other than 2 fails to unpack
    except ValueError:
        raise DocumentError(f"malformed cell key {k!r} in '{where}'") from None
    return r, s


def _entries(doc, name, parse_key, keys, required=False):
    """(raw key, parsed key, value) of each entry of the map `name`, each
    raw key parsed once (`keys` holds the parses); a second raw key naming
    a degree or cell already given is refused, not read over the first."""
    given = {}
    for k, v in _map_field(doc, name, required).items():
        key = keys[k] if k in keys else keys.setdefault(k, parse_key(k, name))
        if given.setdefault(key, k) != k:
            raise DocumentError(f"keys {given[key]!r} and {k!r} both name "
                                f"{key} in '{name}'")
        yield k, key, v


def _dims_field(doc, parse_key) -> tuple[dict, dict]:
    """The nonzero dims keyed by parsed key, and the parse of each raw key."""
    dims, keys = {}, {}
    for k, key, v in _entries(doc, "dims", parse_key, keys, required=True):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise DocumentError(f"malformed dimension at dims[{k}]: {v!r}")
        dims[key] = v
    _check_total_dim(sum(dims.values()), "total dimension")
    return {key: d for key, d in dims.items() if d}, keys


def _check_total_dim(total: int, what: str) -> None:
    if total > MAX_TOTAL_DIM:
        raise DocumentError(f"{what} must be at most {MAX_TOTAL_DIM}, "
                            f"got {total}")


def _parse_complex(text: str, cls):
    """One parse path for both gradings: differentials[n] maps degree n to
    degree n + cls.step (+1 for cochain, -1 for chain complexes)."""
    doc = _load_object(text)
    min_deg = doc.get("min_deg", 0)
    if not isinstance(min_deg, int) or isinstance(min_deg, bool):
        raise DocumentError("'min_deg' must be an integer")
    dims, keys = _dims_field(doc, _degree_key)
    if dims and max(dims) - min(dims) > MAX_DEGREE_SPAN:
        raise DocumentError(f"nonzero degrees must span at most "
                            f"{MAX_DEGREE_SPAN}, got {min(dims)} to "
                            f"{max(dims)}")
    diffs = {}
    for k, deg, raw in _entries(doc, "differentials", _degree_key, keys):
        diffs[deg] = _parse_matrix(raw, dims.get(deg + cls.step, 0),
                                   dims.get(deg, 0), f"differentials[{k}]",
                                   integral=cls.step < 0)
    C = _build(cls, min_deg, dims, diffs)  # diffs have the shapes it wants
    if (n := _nonzero_composite(C)) is not None:
        raise DocumentError(f"d o d != 0 at degree {n}")
    return C


def parse_cochain_document(text: str) -> CochainComplex:
    """Parse a rational cochain complex document and validate d o d = 0."""
    return _parse_complex(text, CochainComplex)


def check_tensor_product(A: CochainComplex, B: CochainComplex) -> None:
    """Refuse a pair whose tensor product would pass MAX_TOTAL_DIM."""
    _check_total_dim(sum(A.dims.values()) * sum(B.dims.values()),
                     "total dimension of the tensor product")


def parse_chain_document(text: str) -> IntChainComplex:
    """Parse an integer chain complex document (homological grading)."""
    return _parse_complex(text, IntChainComplex)


def parse_double_complex_document(text: str) -> DoubleComplex:
    """A double complex document as Tot: block rows at the target's offset in
    D^{r+s}, columns at the source's, vert times (-1)^r; then validated."""
    doc = _load_object(text)
    for key in ("max_r", "max_c"):
        if not isinstance(doc.get(key), int) or isinstance(doc.get(key), bool):
            raise DocumentError(f"missing or malformed '{key}'")
    max_r, max_c = doc["max_r"], doc["max_c"]
    dims, keys = _dims_field(doc, _cell_key)
    offsets, *levels = _place(dims)
    columns = {n: tuple([{} for _ in v]) for n, v in levels[0].items()}
    fracs = {n: [] for n in columns}
    for name, dr, ds in (("horiz", 1, 0), ("vert", 0, 1)):
        for k, (r, s), raw in _entries(doc, name, _cell_key, keys):
            t, j = (r + dr, s + ds), offsets.get((r, s), 0)
            n, cols = r + s, dims.get((r, s), 0)  # empty shape: writes none
            _write_entries(raw, dims.get(t, 0), cols, f"{name}[{k}]", False,
                           columns.get(n, ())[j:j + cols], fracs.get(n, []),
                           offsets.get(t, 0), -1 if ds and r & 1 else 1)
    total = {n: len(cols) for n, cols in columns.items()}
    T = CochainComplex(min(total, default=0), max(total, default=0), total, {
        n: RatMatrix(total.get(n + 1, 0), len(cols), cols,
                     _over_lcm(cols, fracs[n]))
        for n, cols in columns.items() if fracs[n] or any(cols)})
    K = DoubleComplex(max_r, max_c, dims, T)
    K.__dict__["_axis_levels"] = dict(zip((COLUMN, ROW), levels))  # primed
    _check_grid(max_r, max_c, dims, DocumentError)
    return _checked(K, DocumentError)


def parse_int_matrix_document(text: str) -> RatMatrix:
    """Parse an integer matrix document, either a bare array of arrays or an
    object with a 'matrix' field, into a column store over den 1."""
    doc = _load_json(text)
    if isinstance(doc, dict):
        doc = doc.get("matrix")
    if not isinstance(doc, list):
        raise DocumentError("matrix document must be an array of arrays "
                            "or an object with a 'matrix' field")
    rows = len(doc)
    cols = len(doc[0]) if rows and isinstance(doc[0], list) else 0
    _check_total_dim(rows + cols, "total dimension")  # of Z^cols -> Z^rows
    return _parse_matrix(doc, rows, cols, "matrix", integral=True)

