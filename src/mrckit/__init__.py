"""Minimax risk classification with 0-1 loss and certified error bounds."""

import os

# One BLAS thread per process, set before anything here imports numpy: a
# product's rounding then does not depend on the CPU count, and mrckit
# spreads its own work over the CPUs (see parallel.py). A variable already
# set in the environment wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"

from .dataset import (Dataset, DataError, NormalizationStats, apply_normalizer,
                      fit_normalizer, load_csv, save_csv, stratified_split)
from .features import (FeatureMapSpec, default_sigma, feature_map, identity_spec,
                       rff_spec)
from .estimate import (UncertaintySet, ensure_feasible, lambda_bernstein,
                       lambda_hoeffding, lambda_practical, lambda_rademacher)
from .objective import (PiecewiseLinearProblem, build_learning_problem,
                        build_upper_bound_problem, learning_problem,
                        lower_from_upper, phi)
from .solver import (DivergenceError, SolverConfig, SolverError, SolverRun,
                     UnboundedObjectiveError, solve)
from .classifier import (MrcModel, deterministic_rule_bounds, epsilon_s, evaluate,
                         high_confidence_bounds, hoeffding_lambda, load_model,
                         predict, predict_proba, rule_bounds, save_model, train)
