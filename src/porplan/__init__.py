"""SAS+ forward state-space planner with partial-order reduction.

Expansion strategies prune which applicable actions a search applies at
each state without giving up completeness (and, for the stubborn-set
strategies, optimality). The oracle module re-derives everything by brute
force on small instances so the reduction conditions are testable.
"""

from .model import (
    Action,
    GoalNotReached,
    InvalidTask,
    NotApplicable,
    NotApplicableAt,
    PartialAssignment,
    Plan,
    State,
    Task,
    Variable,
    applicable,
    apply_action,
    is_goal,
    validate_plan,
)
from .sas_io import emit_sas, parse_sas
from .graphs import (
    DTG,
    Stratification,
    build_asg,
    build_causal_graph,
    build_dtg,
    build_pdg,
    pdg_edges,
    potential_masks,
    stratify,
)
from .strategies import (
    ExpansionContext,
    ExpansionStrategy,
    full_expansion,
    is_left_commutative,
    landmark_action_set,
    make_bare_strategy,
    make_strategy,
)
from .heuristics import make_heuristic
from .search import Limits, SearchResult, SearchSpec, astar, bfs, gbfs, solve

__version__ = "0.1.0"

__all__ = [
    "Action",
    "DTG",
    "ExpansionContext",
    "ExpansionStrategy",
    "GoalNotReached",
    "InvalidTask",
    "Limits",
    "NotApplicable",
    "NotApplicableAt",
    "PartialAssignment",
    "Plan",
    "SearchResult",
    "SearchSpec",
    "State",
    "Stratification",
    "Task",
    "Variable",
    "applicable",
    "apply_action",
    "astar",
    "bfs",
    "build_asg",
    "build_causal_graph",
    "build_dtg",
    "build_pdg",
    "emit_sas",
    "full_expansion",
    "gbfs",
    "is_goal",
    "is_left_commutative",
    "landmark_action_set",
    "make_bare_strategy",
    "make_heuristic",
    "make_strategy",
    "parse_sas",
    "pdg_edges",
    "potential_masks",
    "solve",
    "stratify",
    "validate_plan",
    "__version__",
]
