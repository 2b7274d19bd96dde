"""Spectra, sharp bounds, and extremal search for the double-commutator
operator T_X(Y) = [X*, [X, Y]] on n x n complex matrices.

The operator is Hermitian positive semidefinite for the Frobenius inner
product, with <T_X Y, Y> = ||[X, Y]||^2. The library computes its spectrum
through the Kronecker lift, enforces the proven eigenvalue bounds as hard
invariants, monitors the open partial-sum and weak-majorization conjectures
with re-verifiable violation bundles, evaluates closed forms for normal and
rank-one matrices, certifies the extremal equality case lambda_1 = 2, and
searches for extremal matrices by monotone alternating ascent.
"""

__version__ = "0.1.0"

from .closed_forms import (
    EqualityWitness,
    closed_form_summary,
    detect_equality_case,
    detect_rank_one,
    is_normal,
    normal_spectrum,
    rank_one_spectrum,
)
from .conjectures import (
    center_normalize,
    check_conj1,
    check_conj2,
    check_conj2c,
    check_isotropic_trace_bound,
    check_lu_lemma,
    check_numbers_lemma,
    reverify_bundle,
)
from .ensembles import (
    gaussian_matrix,
    haar_unitary,
    random_normal_matrix,
    random_rank_one,
    trial_rng,
    unit_gaussian,
)
from .errors import (
    CommSpectraError,
    ConvergenceError,
    DegenerateInputError,
    DegenerateSupportError,
    InvariantViolationError,
    OrderMismatchError,
    ParseError,
    PreconditionError,
)
from .lifted import MAX_LIFT_ENTRIES, double_commutator_lift
from .matrices import (
    commutator,
    frobenius_norm,
    herm_skew_split,
    normalized,
    unvec,
    vec,
)
from .matrixio import load_check_payload, load_matrix, save_matrix
from .search import (
    RestartTrace,
    SearchConfig,
    SearchResult,
    ascend,
    lambda13_search,
    sweep,
    validate_config,
)
from .spectra import (
    LAMBDA13_BOUND,
    BoundReport,
    Spectrum,
    bound_report,
    double_commutator_spectrum,
    first_four_sum_bound,
    majorization_target,
    monitor_majorization,
    monitor_partial_sums,
)
from .verdicts import (
    CONJECTURE_IDS,
    ConjectureVerdict,
    make_bundle,
    read_bundle,
    write_bundle,
)
