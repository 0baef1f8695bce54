"""Oblique regression trees with ridge-projection splits and feature
concatenation, plus ablation baselines and a benchmark harness."""

from .baselines import BaselineKind, fit_cart, fit_ridge_odt
from .datasets import (
    Dataset,
    SplitAssignment,
    gen_sim1,
    gen_sim2,
    kfold_indices,
    parse_csv,
    parse_libsvm,
    train_test_split,
)
from .evaluation import (
    ExperimentConfig,
    ExperimentRecord,
    grid_search_lambda,
    mse,
    r2,
    rank_sum_test,
    run_benchmark,
    run_depth_sweep,
    run_sample_sweep,
)
from .linalg import RidgeSolution, predict_linear, solve_ridge, spd_solve
from .stumps import StumpBasis, compute_stumps, verify_orthogonal_expansion
from .tree import (
    LeafNode,
    ObliqueNode,
    ObliqueTreeModel,
    SplitCriteria,
    SplitResult,
    best_threshold,
    concat_feature,
    decision_path,
    decision_paths,
    find_oblique_split,
    fit_fc_odt,
    model_from_text,
    model_to_text,
    predict,
    predict_batch,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineKind", "Dataset", "ExperimentConfig", "ExperimentRecord",
    "LeafNode", "ObliqueNode", "ObliqueTreeModel", "RidgeSolution",
    "SplitAssignment", "SplitCriteria", "SplitResult", "StumpBasis",
    "best_threshold", "compute_stumps", "concat_feature", "decision_path",
    "decision_paths", "find_oblique_split", "fit_cart", "fit_fc_odt",
    "fit_ridge_odt", "gen_sim1", "gen_sim2", "grid_search_lambda",
    "kfold_indices", "mse", "model_from_text", "model_to_text", "parse_csv",
    "parse_libsvm", "predict", "predict_batch", "predict_linear", "r2",
    "rank_sum_test", "run_benchmark", "run_depth_sweep", "run_sample_sweep",
    "solve_ridge", "spd_solve", "train_test_split",
    "verify_orthogonal_expansion",
]
