"""Symbolic workbench for singular mechanics with even and odd variables.

Pipeline: a polynomial Lagrangian over graded generators is Legendre-analyzed
(momenta, Hessian rank, primary constraints, canonical Hamiltonian), run
through the generalized Hamiltonian consistency algorithm (constraint
classification, Dirac brackets) and through the Hamilton-Jacobi construction
(the extended Hamiltonian family, total differential equations, integrability
closure), with the two analyses cross-checked against each other.  Flows of
the resulting multi-parameter equations can be integrated numerically in a
finite Grassmann algebra.
"""

from .superalgebra import (
    Coefficient,
    Generator,
    Kind,
    Monomial,
    Parity,
    SuperPoly,
    const_poly,
    derive_left,
    derive_right,
    gen_poly,
    monic,
    multiply,
    normalize,
    parity_of,
    substitute,
)
from .brackets import PhaseBasis, SimplecticMetric, berezin, simpletic_bracket
from .legendre import LagrangianModel, LegendreResult, ModelBuilder, analyze
from .dirac import (
    ConstraintRecord,
    DiracAnalysis,
    Surface,
    constraint_matrix,
    dirac_bracket,
    dirac_bracket_table,
    invert_supermatrix,
    run_dirac,
    weak_reduce,
)
from .hamilton_jacobi import (
    HJSystem,
    IntegrabilityReport,
    TotalDifferentialSystem,
    apply_X,
    build_hj_system,
    closure_loop,
    cross_check_dirac,
    integrability_matrix,
    total_differentials,
)
from .numeric_flow import (
    FlowResult,
    GrassmannValue,
    PathSpec,
    evaluate,
    integrate_flow,
    path_independence_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
