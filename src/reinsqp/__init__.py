"""Multiperiod underwriting portfolios on scenario trees.

The package answers one question: which nonnegative positions in a book of
contracts maximize expected final utility subject to variance,
profitability, and mean constraints, when uncertainty is a finite scenario
tree.  Two independent routes answer it.  The structured route exploits
the stagewise lower-triangular factorization of the governing quadratic
form and the successive-approximation multiplier ladder; the dense oracle
flattens everything into probability-weighted coordinates and runs a
textbook active-set program.  They exist to check each other.
"""

from .contracts import ContractBook, MomentTables, check_hypotheses, compute_moments
from .elimination import (
    SpectralSets,
    elimination_coefficients,
    solve,
    spectral_sets,
    spectrum_distance,
)
from .errors import (
    DimensionMismatch,
    Infeasible,
    InfeasibleDeterministic,
    InputError,
    MaxPivotsExceeded,
    NotSPD,
    NumericalFailure,
    ReinsqpError,
    SingularPivot,
)
from .multipliers import (
    IterationResult,
    KktReport,
    MultiplierSet,
    deterministic_solution,
    iterate,
    kkt_verify,
    l_gram,
)
from .operators import Kind, apply, dense_matrix, representers
from .oracle import OracleSolution, assemble, dense_qp
from .portfolio import ConstraintConfig, ConstraintReport, Form, evaluate_constraints
from .scenario import Scenario, load, parse, validate_data
from .tree import (
    AdaptedVariable,
    NodeSpec,
    PortfolioProcess,
    ScenarioTree,
    inner_product,
    norm,
    validate_structure,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedVariable",
    "ConstraintConfig",
    "ConstraintReport",
    "ContractBook",
    "DimensionMismatch",
    "Form",
    "Infeasible",
    "InfeasibleDeterministic",
    "InputError",
    "IterationResult",
    "Kind",
    "KktReport",
    "MaxPivotsExceeded",
    "MomentTables",
    "MultiplierSet",
    "NodeSpec",
    "NotSPD",
    "NumericalFailure",
    "OracleSolution",
    "PortfolioProcess",
    "ReinsqpError",
    "Scenario",
    "ScenarioTree",
    "SingularPivot",
    "SpectralSets",
    "apply",
    "assemble",
    "check_hypotheses",
    "compute_moments",
    "dense_matrix",
    "dense_qp",
    "deterministic_solution",
    "elimination_coefficients",
    "evaluate_constraints",
    "inner_product",
    "iterate",
    "kkt_verify",
    "l_gram",
    "load",
    "norm",
    "parse",
    "representers",
    "solve",
    "spectral_sets",
    "spectrum_distance",
    "validate_data",
    "validate_structure",
]
