"""Human-aware HTN planning with belief tracking and communication.

The package models a robot-human pair sharing a hierarchical task: the
robot plans for both agents while estimating the human's belief state under
execution-time observability conventions (place-based situation assessment,
observable vs. inferrable attributes).  Belief divergences that would change
what the human can or would do are repaired by splicing minimal
communication sequences into the robot's policy.  An omniscient baseline
solver and a reproducible experiment harness are included.
"""

from .builtins import BOX_DOM, COOKING_DOM, builtin_bundle
from .communication import (
    CommAction,
    apply_comm_plan,
    is_relevant_divergence,
    min_comm_bfs,
)
from .domfile import DomainFile, ProblemBundle, parse, parse_bundle, serialize
from .engine import legacy_step, step_belief_protocol
from .errors import BeliefHtnError
from .htn import (
    AgentDomain,
    GroundedOperator,
    HtnProblem,
    MethodSchema,
    OperatorSchema,
    TaskInstance,
    TaskNetwork,
    applicable,
    decompose,
)
from .observability import ObsClass, ObservabilityModel, PlacementRule
from .planner import (
    MODE_LEGACY,
    MODE_NEW,
    ExecutionReport,
    PlannerConfig,
    PolicyEdge,
    PolicyNode,
    PolicyTree,
    enumerate_traces,
    plan,
    simulate,
)
from .state import (
    BeliefState,
    Group,
    GroundedAttribute,
    StateVariableDecl,
    Universe,
    diverging_attributes,
)

__version__ = "0.1.0"

__all__ = [
    "AgentDomain",
    "BeliefHtnError",
    "BeliefState",
    "BOX_DOM",
    "COOKING_DOM",
    "CommAction",
    "DomainFile",
    "ExecutionReport",
    "Group",
    "GroundedAttribute",
    "GroundedOperator",
    "HtnProblem",
    "MethodSchema",
    "MODE_LEGACY",
    "MODE_NEW",
    "ObsClass",
    "ObservabilityModel",
    "OperatorSchema",
    "PlacementRule",
    "PlannerConfig",
    "PolicyEdge",
    "PolicyNode",
    "PolicyTree",
    "ProblemBundle",
    "StateVariableDecl",
    "TaskInstance",
    "TaskNetwork",
    "Universe",
    "applicable",
    "apply_comm_plan",
    "builtin_bundle",
    "decompose",
    "diverging_attributes",
    "enumerate_traces",
    "is_relevant_divergence",
    "legacy_step",
    "min_comm_bfs",
    "parse",
    "parse_bundle",
    "plan",
    "serialize",
    "simulate",
    "step_belief_protocol",
]
