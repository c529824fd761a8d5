"""slhkit: characteristic operators of quantum input-plant-output models.

Dense numpy implementation of SLH triples, their characteristic operators
(direct, all-pass, and Stratonovich evaluations), series-product
composition, Schur-Feshbach block reduction, and adiabatic-elimination
limit models, with the standard worked examples built in as oracles.
"""

from .errors import (
    AssumptionViolated,
    BadParam,
    CayleySingular,
    InvalidCoefficients,
    InvalidFamily,
    NoClosedForm,
    ResolventSingular,
    ShapeError,
    SingularMatrix,
    SlhkitError,
)
from .operators import (
    annihilator,
    dagger,
    identity,
    imag_part,
    inverse,
    is_hermitian,
    is_unitary,
    kron,
    max_abs,
    number,
    pauli,
)
from .model import (
    LinearPassiveSpec,
    SLHModel,
    ValidationReport,
    abcd,
    gauge,
    k_operator,
    model_matrix,
    realize_passive,
    rotate,
    series_product,
    validate,
)
from .characteristic import (
    FrequencyGrid,
    SweepResult,
    char_op,
    char_op_allpass,
    char_op_stratonovich,
    perturbation_series,
    sigma_kernel,
    sweep,
    transfer_function,
    unitarity_check,
    vacuum_expectation_char,
)
from .stratonovich import (
    StratScaledFamily,
    StratonovichCoefficients,
    cayley,
    coefficients_from_parts,
    ito_to_stratonovich,
    strat_scaling_limit,
    stratonovich_to_ito,
)
from .reduction import (
    BlockPartition,
    BlockedOperator,
    SchurFeshbachBlocks,
    char_blocks,
    is_decoupled,
    is_reduced_model,
    partition_operator,
    reassemble_char_blocks,
    reassemble_operator,
    schur_feshbach,
)
from .adiabatic import (
    AssumptionReport,
    ConvergenceStudy,
    LimitModel,
    ScaledSLHFamily,
    assemble_k,
    check_assumptions,
    check_decoupling,
    convergence_study,
    limit_char_op,
    limit_slh,
    scaled_resolvent_limit,
)
from . import modelfile, svgplot, zoo

__version__ = "0.1.0"
