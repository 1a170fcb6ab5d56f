"""Exact cell decompositions of definable subsets of Z_p.

The package computes cell decompositions with Hensel centers for univariate
polynomial data over the p-adic integers, entirely in exact rational
arithmetic, and derives Haar measures, Igusa zeta functions, dimensions and
Grothendieck-semiring Euler characteristics from the cells.  A brute-force
oracle certifies everything independently.
"""

from .padics import INFINITY, RvData, ord_p, rv, unit_digits
from .poly import Poly, resultant_val
from .hensel import (
    NonSimpleRootError,
    PadicApprox,
    check_conditions,
    h,
    order_law_at_root,
    refine_root,
)
from .cells import (
    ArithRange,
    Cell1,
    Center,
    Decomposition,
    OrderLaw,
    ProductCell,
    cell_type,
    center_term,
    contains,
    product,
    refine_common,
)
from .decompose import (
    AcEq,
    Formula,
    OrdCmp,
    OrdEqInf,
    OrdModEq,
    RvEq,
    decompose_set,
    prepare,
    prepare_grouped,
    preserves_balls_report,
)
from .measure import ZetaFn, cell_measure, igusa_zeta, measure_of_order
from .kgroup import AuxShape, K0Element, chi, cv_check, k0_add, k0_mul
from .oracle import count_roots_mod, verify_laws, verify_partition
from .dim import dim_of, dim_product, dim_union

__all__ = [
    "INFINITY",
    "RvData",
    "ord_p",
    "rv",
    "unit_digits",
    "Poly",
    "resultant_val",
    "NonSimpleRootError",
    "PadicApprox",
    "check_conditions",
    "h",
    "order_law_at_root",
    "refine_root",
    "ArithRange",
    "Cell1",
    "Center",
    "Decomposition",
    "OrderLaw",
    "ProductCell",
    "cell_type",
    "center_term",
    "contains",
    "product",
    "refine_common",
    "AcEq",
    "Formula",
    "OrdCmp",
    "OrdEqInf",
    "OrdModEq",
    "RvEq",
    "decompose_set",
    "prepare",
    "prepare_grouped",
    "preserves_balls_report",
    "ZetaFn",
    "cell_measure",
    "igusa_zeta",
    "measure_of_order",
    "AuxShape",
    "K0Element",
    "chi",
    "cv_check",
    "k0_add",
    "k0_mul",
    "count_roots_mod",
    "verify_laws",
    "verify_partition",
    "dim_of",
    "dim_product",
    "dim_union",
]
