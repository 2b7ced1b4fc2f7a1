"""Simulator and analysis tools for Deutsch-model closed-timelike-curve
circuits: consistency-condition fixed points, Cesaro-averaged orbits,
depolarization-regularized limits, maximum-entropy state selection, and
the batch experiments built on top of them.
"""

__version__ = "0.1.0"

from .qmat import (DimSplit, check_density, check_unitary, hermitian_eig,
                   is_density, maximally_mixed, partial_trace, random_density,
                   tensor, trace_distance, von_neumann_entropy)
from .channels import (CtcSystem, apply_superoperator, channel_distance,
                       choi_matrix, cr_output, cv_map, depolarize, kraus_apply,
                       kraus_commutator_residual, kraus_completeness_defect,
                       kraus_from_choi, noisy_cv_map, superoperator,
                       superoperator_from_kraus, unvec, vec)
from .engines import (ConvergenceError, EngineConfig, FixedSubspace,
                      IterationOutcome, allen_cesaro, consistency_residual,
                      deutsch_cesaro, fixed_subspace, limit_superoperator,
                      ralph_closed_form, ralph_iterate, ralph_iterate_many)
from .maxent import (MaxEntResult, entropy_gradient, max_entropy_fixed_state,
                     project_affine)
from .gallery import (DEFAULT_ORDERING, GallerySystem, KnownState, Ordering,
                      OrderingResolution, bistable_unitary, cr_eps, cr_mixed,
                      cr_pure, cr_swap_symmetric, cycling_unitary,
                      discontinuity_unitary, gallery, known_states,
                      limit_kraus_ops, resolve_three_qubit_ordering)
from .experiments import (CONTINUITY_BUDGET, Fig2Config, Fig3Config, RunRecord,
                          RunRow, continuity_metric, counterexample_report,
                          derive_seed, deutsch_rule_grid, run_fig2, run_fig3,
                          transpose_asymmetry, write_csv, write_manifest)

__all__ = [name for name in dir() if not name.startswith("_")]
