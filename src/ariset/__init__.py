"""Solution-set analysis for algebraic Riccati equations and inequalities.

The package characterizes the full solution set of

    -A^T K - K A - Q + K B B^T K <= 0

by homogenizing around a base equation solution K0, enumerating rank-k
equation solutions through invariant Schur blocks and Schur complements,
computing extremal solutions and Willems' bounds, deciding boundedness of
the solution set from controllability structure, and parametrizing
reduced solutions by positive (semi)definite matrices.
"""

from .analysis import (
    BoundednessReport,
    Certificate,
    ExtremalPair,
    FlipReport,
    ParamPoint,
    Witness,
    boundedness,
    extremal_solutions,
    feedback_flip,
    parametrize,
    rank_one_classify,
    recover_parameter,
    verify,
)
from .errors import (
    BaseResidualTooLarge,
    DegenerateSpectrum,
    InvalidInput,
    NoBaseSolution,
    NonInvariantSelection,
    NotAnEquationSolution,
    NotASolution,
    NotRHPSelection,
    RiccatiError,
    SingularInput,
    SingularSylvester,
    SingularY,
    Uncontrollable,
)
from .linalg import (
    DefinitenessVerdict,
    definiteness,
    real_schur_ordered,
    symmetrize,
)
from .riccati import (
    AriSolution,
    DegenerateOutcome,
    HomogeneousForm,
    RiccatiProblem,
    SimplifiedEquation,
    SolutionFamily,
    are_residual,
    degenerate_classify,
    full_rank_simplified_solution,
    reduce,
    ric_residual,
    schur_family,
    solve_base_are,
    zero_solution,
)
from .systems import (
    SpectralBlock,
    SpectralSplit,
    pbh_classify,
    spectral_split,
)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

__all__ = [
    "AriSolution",
    "BaseResidualTooLarge",
    "BoundednessReport",
    "Certificate",
    "DEFAULT",
    "DefinitenessVerdict",
    "DegenerateOutcome",
    "DegenerateSpectrum",
    "ExtremalPair",
    "FlipReport",
    "HomogeneousForm",
    "InvalidInput",
    "NoBaseSolution",
    "NonInvariantSelection",
    "NotASolution",
    "NotAnEquationSolution",
    "NotRHPSelection",
    "ParamPoint",
    "RiccatiError",
    "RiccatiProblem",
    "SimplifiedEquation",
    "SingularInput",
    "SingularSylvester",
    "SingularY",
    "SolutionFamily",
    "SpectralBlock",
    "SpectralSplit",
    "Tolerances",
    "Uncontrollable",
    "Witness",
    "are_residual",
    "boundedness",
    "definiteness",
    "degenerate_classify",
    "extremal_solutions",
    "feedback_flip",
    "full_rank_simplified_solution",
    "parametrize",
    "pbh_classify",
    "rank_one_classify",
    "real_schur_ordered",
    "recover_parameter",
    "reduce",
    "ric_residual",
    "schur_family",
    "solve_base_are",
    "spectral_split",
    "symmetrize",
    "verify",
    "zero_solution",
]
