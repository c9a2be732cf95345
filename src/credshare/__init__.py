"""Credit-based uplink pricing for P2P streaming.

An uploader posts a uniform bandwidth price; downloaders with credit
balances best-respond with purchases. The solver computes the clearing
price, the largest price at which demand equals the uploader's capacity
(with widely spread priority ratios a higher price can earn more while
leaving capacity idle). The package provides that solver, a brute-force
price oracle, two distributed protocol realizations (one-round and
iterative bargaining), and a churn simulator with a credit ledger.
"""

from .errors import ConvergenceError, OracleError, ProtocolAbort, ValidationError
from .model import (
    LN2,
    Allocation,
    DemandCurve,
    DemandSegment,
    Equilibrium,
    GameInstance,
    PeerProfile,
    RegionLabel,
    aggregate_demand,
    best_response,
    build_demand_curve,
    downloader_utility,
    satisfaction,
)
from .oracle import GridSpec, grid_search_price
from .protocol import (
    BargainConfig,
    ProtocolTrace,
    TraceRound,
    replay,
    run_bargaining,
    run_direct,
)
from .simulator import (
    Epoch,
    EventKind,
    Ledger,
    LedgerEntry,
    ScenarioEvent,
    TimelineRecord,
    apply_transaction,
    ledger_csv,
    run_scenario,
)
from .solver import SolverConfig, classify_region, solve

__version__ = "0.1.0"

__all__ = [
    "LN2",
    "Allocation",
    "BargainConfig",
    "ConvergenceError",
    "DemandCurve",
    "DemandSegment",
    "Epoch",
    "Equilibrium",
    "EventKind",
    "GameInstance",
    "GridSpec",
    "Ledger",
    "LedgerEntry",
    "OracleError",
    "PeerProfile",
    "ProtocolAbort",
    "ProtocolTrace",
    "RegionLabel",
    "ScenarioEvent",
    "SolverConfig",
    "TimelineRecord",
    "TraceRound",
    "ValidationError",
    "aggregate_demand",
    "apply_transaction",
    "best_response",
    "build_demand_curve",
    "classify_region",
    "downloader_utility",
    "grid_search_price",
    "ledger_csv",
    "replay",
    "run_bargaining",
    "run_direct",
    "run_scenario",
    "satisfaction",
    "solve",
]
