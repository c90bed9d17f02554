"""Consensus maximisation for linear models via weighted influences of
monotone Boolean feasibility functions."""

from .cube import (
    BernoulliMeasure,
    InfluenceReport,
    TabulatedFunction,
    estimate_influence_bernoulli,
    estimate_influence_hamming,
    exact_fourier_first_order,
    exact_influence_report,
    exact_weighted_influence,
    sample_bernoulli,
    sample_level,
    truth_table,
)
from .datagen import GenSpec, gen_hyperplane_data, gen_multistructure_data
from .errors import BudgetError, ContractError, MaxconError, SolverError
from .ingest import (
    CorrespondenceSet,
    linearise_fundamental,
    linearise_homography,
    load_correspondences_csv,
    save_correspondences_csv,
)
from .metrics import Ranking, consensus_error, sf_distance, top_k_ranking
from .models import (
    FeasibilityOracle,
    LinearDataset,
    MinimaxFit,
    ModelParams,
    basis,
    exact_maxcon_bases,
    exact_maxcon_enumerate,
    load_dataset_csv,
    minimax_fit,
    residual,
    save_dataset_csv,
)
from .solvers import (
    RansacBudget,
    SolveResult,
    SolverConfig,
    lo_ransac,
    local_expansion,
    mbf_maxcon,
    ransac,
    solve,
    wi_maxcon,
)
from .theory import (
    StructureSpec,
    detect_pseudo_upper_zeros,
    influence_ideal_multi,
    influence_ideal_single,
    influence_nonideal,
    make_structured_bf,
    ordering_check,
)

__version__ = "0.1.0"
