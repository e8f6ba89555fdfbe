"""Value semantics of the library's frozen records (`exhom._record.Record`):
the one constructor, which binds arguments to the declared fields as a def
would; equality within one class, field by field; the hash of the field
tuple; no assignment or deletion; ``Name(field=value, ...)`` repr; and each
class's own checks."""

import itertools

import pytest

# exhom.cli imports every module that defines a record but steinberg, which
# it imports on first use; steinberg's records are imported below
import exhom.cli  # noqa: F401
from conftest import SteinbergLabel, transpose
from exhom._record import Record
from exhom.complexes import (
    CheckReport,
    CochainComplex,
    IntChainComplex,
    _Complex,
)
from exhom.qlinalg import RatMatrix
from exhom.spectral import DoubleComplex, FiltrationChain, SpectralPages
from exhom.steinberg import (
    BettiProfile,
    E2Table,
    InducedSpectrum,
    PaperTableDiff,
)
from exhom.zlinalg import FinAbGroup, SmithForm

ZERO = InducedSpectrum(0, 0, 0)


def _grid():
    return E2Table(1, 1, ZERO, {(0, 0): 1, (1, 1): 2})


# class, its fields in order, a function giving fresh constructor arguments,
# and whether an instance is hashable (False when a field is a dict)
CASES = [
    (RatMatrix, ("rows", "cols", "columns", "den"),
     lambda: (2, 1, ({0: 1, 1: 3},), 2), False),
    (SmithForm, ("U", "D", "V", "diagonal"),
     lambda: (RatMatrix.identity(1), RatMatrix(1, 1, ({0: 2},)),
              RatMatrix.identity(1), (2,)), False),
    (FinAbGroup, ("free_rank", "torsion"), lambda: (1, (2, 4)), True),
    (_Complex, ("min_deg", "max_deg", "dims", "differentials"),
     lambda: (0, 1, {0: 1, 1: 1}, {}), False),
    (CochainComplex, ("min_deg", "max_deg", "dims", "differentials"),
     lambda: (0, 1, {0: 1, 1: 1}, {0: RatMatrix(1, 1, ({0: 1},), 2)}), False),
    (IntChainComplex, ("min_deg", "max_deg", "dims", "differentials"),
     lambda: (0, 1, {0: 1, 1: 1}, {1: RatMatrix(1, 1, ({0: 2},))}), False),
    (CheckReport, ("name", "rows", "passed", "note"),
     lambda: ("uct", ((0, 1, 1),), True, "a note"), True),
    (DoubleComplex, ("max_r", "max_c", "dims", "total"),
     lambda: (0, 0, {(0, 0): 1}, CochainComplex(0, 0, {0: 1}, {})), False),
    (SpectralPages, ("filtration_axis", "pages", "d_ranks", "limit",
                     "stable_page"),
     lambda: ("column", {1: {(0, 0): (1, (0,))}}, {}, {(0, 0): 1}, 1),
     False),
    (FiltrationChain, ("n", "ambient_dim", "levels", "rows"),
     lambda: (1, 2, (0, 1), ({0: 1}, {1: 1})), False),
    (SteinbergLabel, ("d", "subset"), lambda: (2, frozenset({1})), True),
    (InducedSpectrum, ("m10", "m01", "m11"), lambda: (1, 0, 2), True),
    (E2Table, ("d", "dp", "spectrum", "grid"),
     lambda: (1, 1, ZERO, {(0, 0): 1}), False),
    (BettiProfile, ("d", "dp", "spectrum", "b"),
     lambda: (1, 1, ZERO, (1, 0, 2, 0, 1)), True),
    (PaperTableDiff, ("d", "dp", "spectrum", "computed", "stated",
                      "cell_diffs", "betti_computed", "betti_stated",
                      "betti_diffs"),
     lambda: (2, 2, ZERO, _grid(), {(0, 0): 1}, {(1, 1): (2, 0)}, (1, 0),
              (1, 0), {}), False),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_cases_cover_every_record_class():
    """Every record class of the library is in CASES, and none writes its
    own constructor; neither does the test oracle's SteinbergLabel."""
    def library(classes):
        return {c for c in classes if c.__module__.startswith("exhom.")}

    assert library(_subclasses(Record)) == library(c for c, *_ in CASES)
    assert not [c for c in _subclasses(Record) if "__init__" in vars(c)]
    assert "_fields" in vars(SteinbergLabel)


def test_fields_are_the_constructor_parameters(case):
    cls, fields, args, _ = case
    assert cls._fields == fields
    a, b = cls(*args()), cls(**dict(zip(fields, args())))
    assert tuple(getattr(a, f) for f in fields) == tuple(
        getattr(b, f) for f in fields)


def test_equality_is_per_class_and_field_by_field(case):
    cls, fields, args, _ = case
    a, b = cls(*args()), cls(*args())
    assert a is not b and a == b and not a != b
    other = type("Other", (cls,), {})(*args())
    assert a != other and other != a
    assert a != tuple(getattr(a, f) for f in fields)


def test_hash_is_the_hash_of_the_fields(case):
    cls, fields, args, hashable = case
    a = cls(*args())
    values = tuple(getattr(a, f) for f in fields)
    if hashable:
        assert hash(a) == hash(cls(*args())) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_no_assignment_or_deletion(case):
    cls, fields, args, _ = case
    a = cls(*args())
    for name in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(*args())


def test_repr_names_the_class_and_its_fields(case):
    cls, fields, args, _ = case
    a = cls(*args())
    assert repr(a) == cls.__qualname__ + "(" + ", ".join(
        f"{f}={getattr(a, f)!r}" for f in fields) + ")"


def test_binding_raises_type_error_where_a_def_would(case):
    cls, fields, args, _ = case
    values = args()
    named = dict(zip(fields, values))
    required = fields[:len(fields) - len(cls._defaults)]
    rest = {f: v for f, v in named.items() if f != fields[0]}
    calls = [(values, {"not_a_field": 0}),  # an unknown name
             ((), dict(rest, not_a_field=values[0])),  # in place of a field
             (values[:1], named),  # the first field given twice
             (values + (0,), {}),  # too many positionals
             (values[:len(required) - 1], {})]  # a required field left out
    calls += [((), {f: v for f, v in named.items() if f != skipped})
              for skipped in required]  # a required field skipped by name
    for bad_args, bad_kwargs in calls:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


class _Defaults(Record):
    """Three defaulted fields, so a binding that skips one can shift the
    values of the next ones."""

    _fields, _defaults = ("a", "b", "c", "d"), ("B", "C", "D")


DEFAULTED = [(_Defaults, lambda: tuple("abcd"))] + [
    (cls, args) for cls, _, args, _ in CASES if cls._defaults]


@pytest.mark.parametrize("cls, args", DEFAULTED,
                         ids=[cls.__name__ for cls, _ in DEFAULTED])
def test_every_subset_of_defaulted_fields_binds(cls, args):
    """Each subset of the defaulted fields given, by name, after each number
    of leading fields given by position; the others take their defaults."""
    fields, defaults, values = cls._fields, cls._defaults, args()
    required = len(fields) - len(defaults)
    for k in range(len(defaults) + 1):
        for given in itertools.combinations(range(required, len(fields)), k):
            for lead in range(len(fields) + 1):
                want = tuple(values[i] if i < lead or i < required
                             or i in given else defaults[i - required]
                             for i in range(len(fields)))
                record = cls(*values[:lead], **{
                    fields[i]: values[i] for i in range(lead, len(fields))
                    if i < required or i in given})
                assert record == cls(*want), (given, lead)


def test_defaults_and_replace():
    assert RatMatrix(1, 1, ({0: 3},)).den == 1
    assert FiltrationChain(0, 0, ()).rows is None
    assert CheckReport("kunneth", (), True).note == ""
    # a record with one field changed is built by the constructor
    assert InducedSpectrum(m01=0, m10=1, m11=3) == InducedSpectrum(1, 0, 3)


def test_transpose_keeps_type_and_denominator():
    M = RatMatrix(2, 3, ({0: 1, 1: 4}, {0: 2, 1: 5}, {0: 3, 1: 7}), 6)
    T = transpose(M)
    assert type(T) is RatMatrix and T.den == 6
    assert T == RatMatrix(3, 2, ({0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 7}), 6)
    assert transpose(T) == M
    N = transpose(RatMatrix(1, 2, ({0: 5}, {0: -7})))
    assert N == RatMatrix(2, 1, ({0: 5, 1: -7},))


def test_cached_properties_still_work():
    K = DoubleComplex(0, 0, {(0, 0): 1}, CochainComplex(0, 0, {0: 1}, {}))
    assert K._axis_levels is K._axis_levels and K._bases is K._bases
    assert K._axis_levels == {"column": {0: [0]}, "row": {0: [0]}}
    assert K.total._columns is K.total._columns


@pytest.mark.parametrize("build", [
    lambda: RatMatrix(1, 2, ({},)),
    lambda: RatMatrix(-1, 0, ()),
    lambda: RatMatrix(1, 1, ({0: 1},), 0),
    lambda: FinAbGroup(-1, ()),
    lambda: FinAbGroup(0, (3, 2)),
    lambda: FinAbGroup(0, (1,)),
    lambda: FiltrationChain(1, 2, (0,)),
    lambda: FiltrationChain(1, 1, (2,)),
    lambda: FiltrationChain(1, 1, (0,), ({1: 1},)),
    lambda: SteinbergLabel(0, frozenset()),
    lambda: SteinbergLabel(2, frozenset({3})),
    lambda: InducedSpectrum(-1, 0, 0),
    lambda: FinAbGroup(0, (0, 5)),  # checked >= 2 before it divides by 0
])
def test_constructor_checks_still_raise(build):
    with pytest.raises(ValueError):
        build()
