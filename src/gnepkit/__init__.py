"""Equilibrium tooling for generalized games with set-valued preferences.

The pieces: convex bodies with optional strict (open) faces, preference
variants and their improvement queries, the normal-cone operator T, hull
residuals with projection-type VI/QVI solvers, a definition-based grid
oracle, first-principles certificates, and an exchange-economy reduction.
"""

__version__ = "0.1.0"

from .convexsets import (
    Ball,
    Box,
    ConeSection,
    ConvexBody,
    EmptyBodyError,
    EnumerationError,
    HPoly,
    Intersection,
    InteriorPointError,
    Simplex,
    ball,
    body_from_dict,
    box,
    halfspaces,
    hull_body,
    intersect,
    maximize,
    normal_cone_generators,
    polar_check,
    separate,
    simplex,
    support_max,
)
from .economy import (
    CompetitiveOutcome,
    Consumer,
    EconomyError,
    EconomyInstance,
    HypothesisUncheckedWarning,
    Producer,
    SatiatedConsumerError,
    check_market_clearing,
    check_walras,
    outcome_from_point,
    solve_competitive,
    to_gnep,
)
from .game import (
    CoercivityReport,
    EquilibriumCertificate,
    FixedConstraint,
    GameInstance,
    ParametricConstraint,
    SharedSlice,
    Tolerances,
    check_Cx,
    check_coercivity_jointly_convex,
    constraint_body,
    jointly_convex_game,
    membership_violation,
    slice_body,
    verify_equilibrium,
)
from .operators import OperatorEval, evaluate_T, normal_map, select
from .preferences import (
    LinearUtility,
    PolyhedralPref,
    PreferenceMap,
    QuadUtility,
    RelationOracle,
    RelationProfile,
    SelfPreferenceError,
    UnboundedPreferenceError,
    UnionPref,
    convexified_set,
    is_satiated,
    max_improvement,
    pref_set,
    relation_profile,
)
from .solvers import (
    OracleResult,
    SolveResult,
    SolverConfig,
    grid_oracle,
    hull_residual,
    qvi_residual,
    solve_qvi,
    solve_vi,
    vi_residual,
)

__all__ = [
    "__version__",
    # bodies
    "ConvexBody", "Box", "Simplex", "HPoly", "Ball", "Intersection",
    "ConeSection", "box", "simplex", "halfspaces", "ball", "intersect",
    "hull_body", "maximize", "support_max", "body_from_dict", "separate",
    "normal_cone_generators", "polar_check",
    "EmptyBodyError", "EnumerationError", "InteriorPointError",
    # preferences
    "LinearUtility", "QuadUtility", "PolyhedralPref", "UnionPref",
    "RelationOracle", "PreferenceMap", "pref_set", "convexified_set",
    "max_improvement", "is_satiated", "relation_profile", "RelationProfile",
    "SelfPreferenceError", "UnboundedPreferenceError",
    # operator
    "OperatorEval", "normal_map", "evaluate_T", "select",
    # game
    "GameInstance", "SharedSlice", "FixedConstraint", "ParametricConstraint",
    "Tolerances", "jointly_convex_game", "slice_body", "constraint_body",
    "membership_violation", "verify_equilibrium", "EquilibriumCertificate",
    "CoercivityReport", "check_coercivity_jointly_convex", "check_Cx",
    # solvers
    "SolverConfig", "SolveResult", "solve_vi", "solve_qvi", "vi_residual",
    "qvi_residual", "hull_residual", "grid_oracle", "OracleResult",
    # economy
    "EconomyInstance", "Consumer", "Producer", "CompetitiveOutcome",
    "solve_competitive", "outcome_from_point", "to_gnep", "check_market_clearing",
    "check_walras", "EconomyError", "SatiatedConsumerError",
    "HypothesisUncheckedWarning",
]
