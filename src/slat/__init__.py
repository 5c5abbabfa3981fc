"""Toolkit for finite weighted semilattices: stability functionals,
level-confined propagation, breadth, and the adversarial weight construction."""

from .adversarial import (AdversarialChain, InsufficientBreadth, build_chain,
                          check_eta_subadditive, eta_weight, find_markers,
                          verify_barrier)
from .breadth import (BreadthReport, breadth, find_incompressible,
                      is_compressible, is_free_embedding)
from .core import (NotClosedError, Semilattice, SizeOverflowError, chain,
                   fin_truncation, free_nonempty, generate_instance,
                   kary_tree, powerset, sch_embed)
from .metrics import (LogMagnitude, best_guess_check, d_set, defect_complex,
                      defect_set, discretize, dist_complex, dist_set,
                      enumerate_filters, generate_filter, is_filter,
                      level_agreement, omega_bound)
from .propagation import (BudgetExceeded, PropagationProfile,
                          PropagationValue, check_equivalence_iii, fbp,
                          fbp_closure, finite_breadth_bound_check,
                          is_fbp_stable, propagation_profile,
                          stability_threshold, v_value)
from .weights import (LogWeight, builtin_logweight, level_set,
                      logweight_from_json, random_logweight,
                      validate_logweight)

__version__ = "0.1.0"

__all__ = [
    "AdversarialChain", "BreadthReport", "BudgetExceeded", "InsufficientBreadth",
    "LogMagnitude", "LogWeight", "NotClosedError", "PropagationProfile",
    "PropagationValue", "Semilattice", "SizeOverflowError",
    "best_guess_check", "breadth", "build_chain", "builtin_logweight", "chain",
    "check_equivalence_iii", "check_eta_subadditive", "d_set",
    "defect_complex", "defect_set", "discretize", "dist_complex", "dist_set",
    "enumerate_filters", "eta_weight", "fbp", "fbp_closure",
    "fin_truncation", "find_incompressible", "find_markers",
    "finite_breadth_bound_check", "free_nonempty", "generate_filter",
    "generate_instance", "is_compressible", "is_fbp_stable", "is_filter",
    "is_free_embedding", "kary_tree", "level_agreement", "level_set",
    "logweight_from_json", "omega_bound", "powerset",
    "propagation_profile", "random_logweight", "sch_embed",
    "stability_threshold", "v_value", "validate_logweight", "verify_barrier",
]
