"""hwrom: hierarchical-web recursive organization engine for multi-robot
task allocation, with market-based formation and a deterministic simulator."""

from .formation import (
    EngineParams,
    FormationError,
    FormationState,
    Phase,
    PursuitParams,
    WithdrawReason,
    form,
    handle_join,
    handle_withdrawal,
    reelect_leader,
    step,
)
from .market import AdjustPolicy, Announcement, Bid, Decline, adjust_tactics, compute_bid, select_winner
from .org_core import (
    Capability,
    CapabilityKind,
    CapabilityRequirement,
    CooperativeRobot,
    Organization,
    OrgNode,
    TaskNode,
    TaskStatus,
    leader_of,
    level_of,
    members,
    settle_utilities,
    validate,
)
from .rules_engine import (
    ConstraintKind,
    ConstraintRelation,
    LockLedger,
    Rule,
    check_assignment,
    has_predicate,
    winner_locked,
)
from .simnet import NetConfig, Scheduler, route

__version__ = "0.1.0"
