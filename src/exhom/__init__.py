"""Exact-arithmetic homological algebra toolkit.

Rational and integer linear algebra, finite (co)chain complexes, double
complex spectral sequences with their filtrations, and the closed-form
Ext/E2/Betti calculus for quotients of products of Drinfeld symmetric
spaces, all over exact arithmetic.
"""

from .qlinalg import RatMatrix
from .zlinalg import (FinAbGroup, SmithForm, invariant_factors,
                      smith_normal_form)
from .complexes import (CochainComplex, IntChainComplex, cochain_complex,
                        homology_int, int_chain_complex, kunneth_check,
                        tensor_product, uct_check, validate_complex)
from .spectral import (COLUMN, ROW, DoubleComplex, FiltrationChain,
                       SpectralPages, dimension_criterion, double_complex,
                       filtration_on_total, opposite_check, spectral_pages)

__version__ = "0.1.0"


def __getattr__(name):
    """steinberg's exports, imported on first use (PEP 562)."""
    if name in ("E2Table", "InducedSpectrum", "betti_profile",
                "covering_filtration_dims", "e2_table", "paper_table_diff"):
        from . import steinberg
        return getattr(steinberg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
