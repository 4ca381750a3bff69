"""Tests of dynamically random utility maximization on panel choice data:
type-matrix and facet constructions, deterministic consistency checks, a
bootstrap cone-projection test, and counterfactual bounds."""

from .checks import (CheckReport, adsrp_audit, bm_extension_feasible, check_H,
                     check_d_monotonicity, check_sarpd, check_stability,
                     cone_membership, hierarchy_feasible, unique_recovery)
from .counterfactuals import BoundsReport, CounterfactualProblem, bound_functional, kron_counterfactual_cone
from .doubledesc import convert_V_to_H
from .errors import DrumError
from .geometry import (Budget, Patch, compute_patches, demand_universe,
                       enumerate_demand_types, normalize_dradm, pool)
from .inference import TestConfig, TestReport, run_test, run_test_eu
from .model import (ChoiceUniverse, Menu, PanelDataset, PanelRecord,
                    StochasticChoiceFunction, estimate_rho, marginal_conditional_slice)
from .representations import (InequalityMatrix, LinearOrder, ProjectionOperator,
                              TypeMatrix, bm_matrix, build_static_A, catalog_H,
                              drum_bm_values, enumerate_orders, kron_dynamic,
                              kron_inequalities, projection_ops, reduce_H, reduce_star)
from .simulate import DgpSpec, ExperimentReport, run_experiment

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
