"""Exact-arithmetic homological algebra toolkit.

Rational and integer linear algebra, finite (co)chain complexes, double
complex spectral sequences with their filtrations, and the closed-form
Ext/E2/Betti calculus for quotients of products of Drinfeld symmetric
spaces, all over exact arithmetic.
"""

from .qlinalg import RatMatrix
from .zlinalg import (
    FinAbGroup,
    IntMatrix,
    SmithForm,
    invariant_factors,
    smith_normal_form,
)
from .complexes import (
    CochainComplex,
    IntChainComplex,
    cochain_complex,
    cohomology,
    homology_int,
    int_chain_complex,
    kunneth_check,
    tensor_product,
    uct_check,
    validate_complex,
)
from .spectral import (
    COLUMN,
    ROW,
    DoubleComplex,
    FiltrationChain,
    SpectralPages,
    dimension_criterion,
    double_complex,
    filtration_on_total,
    opposite_check,
    spectral_pages,
    total_complex,
)
from .steinberg import (
    E2Table,
    InducedSpectrum,
    betti,
    betti_profile,
    covering_filtration_dims,
    e2_table,
    paper_table_diff,
)

__version__ = "0.1.0"
