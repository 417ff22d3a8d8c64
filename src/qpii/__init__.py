"""Toolkit for the deformed, matrix-valued second Painlevé system.

Exact noncommutative polynomial algebra with rewriting, symbolic
zero-curvature derivations, quasideterminants over generic carriers, and
numeric dressing chains with quasideterminant solution forms.
"""

from .gaussian import GaussianRational, gauss
from .ncalg import (
    Algebra,
    Coefficient,
    DerivationTable,
    NCPolynomial,
    RewriteRule,
    RewriteSystem,
    classical_limit,
    default_algebra,
    default_derivation_table,
    derive,
    normal_form,
    parse_poly,
)
from .laxderive import (
    DerivedSystem,
    Matrix2,
    build_lax,
    derive_qpii,
    verify_symmetric_relations,
    zero_curvature_residual,
)
from .quasidet import (
    BlockMatrix,
    ComplexMatrixCarrier,
    ExactScalarCarrier,
    all_quasideterminants,
    commutative_reduction_check,
    quasideterminant_expand,
    quasideterminant_via_inverse,
)
from .darboux import (
    DarbouxConfig,
    DressingChain,
    Eigenpair,
    GridFunction,
    darboux_nfold,
    darboux_once,
    dress_eigenfunctions,
    integrate_eigenpairs,
    integrate_linear_system,
    qpii_residual_numeric,
    quasidet_solution_form,
    riccati_residual_numeric,
    run_config,
    vacuum_seed,
)

__version__ = "0.1.0"
