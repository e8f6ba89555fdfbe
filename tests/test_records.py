"""Value semantics of the library's frozen records (`exhom._record.Record`):
equality within one class, field by field; the hash of the field tuple; no
assignment or deletion; ``Name(field=value, ...)`` repr; and each class's
own constructor checks."""

import pytest

from conftest import SteinbergLabel
from exhom.complexes import (
    CheckReport,
    CochainComplex,
    IntChainComplex,
    _Complex,
)
from exhom.qlinalg import RatMatrix, _Dense
from exhom.spectral import DoubleComplex, FiltrationChain, SpectralPages
from exhom.steinberg import (
    BettiProfile,
    E2Table,
    InducedSpectrum,
    PaperTableDiff,
)
from exhom.zlinalg import FinAbGroup, IntMatrix, SmithForm

ZERO = InducedSpectrum(0, 0, 0)


def _grid():
    return E2Table(1, 1, ZERO, {(0, 0): 1, (1, 1): 2})


# class, its fields in order, a function giving fresh constructor arguments,
# and whether an instance is hashable (False when a field is a dict)
CASES = [
    (_Dense, ("rows", "cols", "nums"), lambda: (2, 2, (1, 2, 3, 4)), True),
    (RatMatrix, ("rows", "cols", "nums", "den"),
     lambda: (2, 1, (1, 3), 2), True),
    (IntMatrix, ("rows", "cols", "nums"), lambda: (1, 2, (5, -7)), True),
    (SmithForm, ("U", "D", "V", "diagonal"),
     lambda: (IntMatrix.identity(1), IntMatrix(1, 1, (2,)),
              IntMatrix.identity(1), (2,)), True),
    (FinAbGroup, ("free_rank", "torsion"), lambda: (1, (2, 4)), True),
    (_Complex, ("min_deg", "max_deg", "dims", "differentials"),
     lambda: (0, 1, {0: 1, 1: 1}, {}), False),
    (CochainComplex, ("min_deg", "max_deg", "dims", "differentials"),
     lambda: (0, 1, {0: 1, 1: 1}, {0: RatMatrix(1, 1, (1,), 2)}), False),
    (IntChainComplex, ("min_deg", "max_deg", "dims", "differentials"),
     lambda: (0, 1, {0: 1, 1: 1}, {1: IntMatrix(1, 1, (2,))}), False),
    (CheckReport, ("name", "rows", "passed", "note"),
     lambda: ("uct", ((0, 1, 1),), True, "a note"), True),
    (DoubleComplex, ("max_r", "max_c", "dims", "horiz", "vert"),
     lambda: (0, 0, {(0, 0): 1}, {}, {}), False),
    (SpectralPages, ("filtration_axis", "pages", "d_ranks", "limit",
                     "stable_page"),
     lambda: ("column", {1: {(0, 0): (1, (0,))}}, {}, {(0, 0): 1}, 1),
     False),
    (FiltrationChain, ("n", "ambient_dim", "levels", "rows"),
     lambda: (1, 2, (0, 1), ((1, 0), (0, 1))), True),
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


def test_defaults_and_replace():
    assert RatMatrix(1, 1, (3,)).den == 1
    assert FiltrationChain(0, 0, ()).rows is None
    assert CheckReport("kunneth", (), True).note == ""
    assert InducedSpectrum(1, 2, 3).replace(m01=0) == InducedSpectrum(1, 0, 3)


def test_transpose_keeps_type_and_denominator():
    M = RatMatrix(2, 3, (1, 2, 3, 4, 5, 7), 6)
    T = M.transpose()
    assert type(T) is RatMatrix and T.den == 6
    assert (T.rows, T.cols, T.nums) == (3, 2, (1, 4, 2, 5, 3, 7))
    assert T.transpose() == M
    N = IntMatrix(1, 2, (5, -7)).transpose()
    assert type(N) is IntMatrix and N.entries == (5, -7) and N.cols == 1


def test_cached_properties_still_work():
    M = RatMatrix(1, 2, (1, 3), 2)
    assert M.entries is M.entries and M.row(0) == M.entries
    K = DoubleComplex(0, 0, {(0, 0): 1}, {}, {})
    assert K._total is K._total and K._bases is K._bases


@pytest.mark.parametrize("build", [
    lambda: _Dense(1, 2, (1,)),
    lambda: _Dense(-1, 0, ()),
    lambda: IntMatrix(1, 1, ("3",)),
    lambda: FinAbGroup(-1, ()),
    lambda: FinAbGroup(0, (3, 2)),
    lambda: FinAbGroup(0, (1,)),
    lambda: FiltrationChain(1, 2, (0,)),
    lambda: FiltrationChain(1, 1, (2,)),
    lambda: FiltrationChain(1, 1, (0,), ((1, 0),)),
    lambda: SteinbergLabel(0, frozenset()),
    lambda: SteinbergLabel(2, frozenset({3})),
    lambda: InducedSpectrum(-1, 0, 0),
])
def test_constructor_checks_still_raise(build):
    with pytest.raises(ValueError):
        build()
