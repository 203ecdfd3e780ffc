"""Discrete Euler-Lagrange dynamics on Lie groups, Lie groupoids, and
matched pairs of both."""

from .errors import (
    BasePointMismatch,
    DomainError,
    EvaluationError,
    MatchdynError,
    NoConvergence,
    NotComposable,
    SingularJacobian,
    TagError,
)
from .groups import SO3, SU2, Abelian, Circle, Group, KGroup
from .matched_group import MatchedPairGroup, Su2K
from .groupoids import (
    ActionGroupoid,
    Chart,
    GroupGroupoid,
    Groupoid,
    MatchedPairGroupoid,
    OrbitPair,
    PairGroupoid,
    RotatedPlane,
    TrivialDecomposition,
    TrivialGroupoid,
    compose,
    default_trivial_decomposition,
)
from .algebroid import (
    AlgebroidVector,
    anchor,
    iso_matched_to_sum,
    iso_sum_to_matched,
    left_invariant,
    right_invariant,
)
from .dynamics import (
    DiscreteLagrangian,
    Trajectory,
    action_sum,
    del_residual,
    del_residual_matched_group,
    del_step,
    march,
    momentum_evolution,
    solve_trajectory,
    variational_oracle,
)
from .scenarios import RunReport, ScenarioConfig, run_scenario

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
