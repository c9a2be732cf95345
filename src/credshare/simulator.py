"""Discrete-event churn simulation over the pricing game, with a ledger.

A scenario is a time-sorted list of join/leave/settle events against one
uploader. Every join or leave re-solves the game over the peers currently
present (with their live ledger balances as credits) and opens a new
timeline epoch; a settle event charges each downloader price * allocation
out of its balance and credits the uploader, leaving the epoch untouched.
Spending therefore lowers a peer's priority ratio at the next churn event,
which is the mechanism's intended feedback. Consecutive games differ by one
peer and the spent credits, so each re-solve starts its search for the
bracketing segment at the previous epoch's price and gallops from there;
the start never changes the result. Each present peer keeps its profile
from one game to the next, and a re-solve rebuilds (and so validates
again) only the profiles of the peers whose balance has moved since theirs
was built: the payers of the settles in between, and a rejoining peer
whose balance is no longer its endowment. Only those peers are checked, so
a re-solve scans the ledger entries logged since the last one, not every
present peer's balance. A settle writes the balances and the log directly;
a LedgerEntry is a NamedTuple, equal to the plain tuple of its fields.

The event loop is single threaded and deterministic: identical scenarios
produce identical timelines and ledgers. The timeline repeats every present
peer in every epoch, so its CSV and the ledger's build each row as one
finished line, in one %-operation on a row pattern over formatting.NUMBER
(formatting an epoch's times and price once), and hand the lines to
formatting.csv_text.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import model
from .errors import ValidationError
from .formatting import NUMBER
from .model import (UPLOADER_ID, Equilibrium, GameInstance, PeerProfile,
                    _require_capacity, _require_finite)
from .solver import solve

INFINITY = float("inf")


class EventKind(Enum):
    JOIN = "join"
    LEAVE = "leave"
    SETTLE = "settle"


@dataclass(frozen=True)
class ScenarioEvent:
    time: float
    kind: EventKind
    peer: Optional[PeerProfile] = None   # join
    peer_id: Optional[str] = None        # leave
    duration: float = 1.0                # settle; recorded, not scaled

    def __post_init__(self):
        if not isinstance(self.kind, EventKind):
            raise ValidationError(f"event kind must be an EventKind, got {self.kind!r}")
        object.__setattr__(self, "time", _require_finite("event time", self.time))
        object.__setattr__(self, "duration",
                           _require_finite("settle duration", self.duration))
        if self.time < 0:
            raise ValidationError(f"event time must be >= 0, got {self.time}")
        if self.kind is EventKind.JOIN:
            # model's class, not this module's PeerProfile name, which a
            # tracer may replace to count the profiles run_scenario builds
            if not isinstance(self.peer, model.PeerProfile):
                raise ValidationError(
                    f"join event requires a peer profile, got {self.peer!r}")
        elif self.kind is EventKind.LEAVE:
            if not self.peer_id:
                raise ValidationError("leave event requires a peer id")
        elif self.kind is EventKind.SETTLE:
            if self.duration < 0:
                raise ValidationError("settle duration must be >= 0")


class LedgerEntry(NamedTuple):
    time: float
    payer: str
    payee: str
    amount: float


@dataclass
class Ledger:
    """Credit balances (the uploader's under UPLOADER_ID) plus the transaction log."""

    balances: Dict[str, float] = field(default_factory=dict)
    log: List[LedgerEntry] = field(default_factory=list)
    exhausted: set = field(default_factory=set)

    def __post_init__(self):
        self.balances.setdefault(UPLOADER_ID, 0.0)

    def register(self, peer_id: str, credits: float):
        # first appearance endows the account; a rejoining peer keeps its
        # earned-and-spent balance rather than resetting it
        if peer_id not in self.balances:
            self.balances[peer_id] = float(credits)

    def balance(self, account: str) -> float:
        return self.balances[account]

    def total(self) -> float:
        total = 0.0
        for balance in self.balances.values():
            total += balance
        return total


def apply_transaction(ledger: Ledger, eq: Equilibrium, time: float) -> Ledger:
    """Charge each allocated downloader price * bandwidth to the uploader.

    A payer short of the full charge pays out its remaining balance and is
    flagged credit-exhausted; the total of all balances is conserved.
    """
    price = eq.price
    balances, log = ledger.balances, ledger.log
    for peer_id, bandwidth in eq.allocation.items():
        amount = price * bandwidth
        if amount == 0.0:
            continue
        available = balances[peer_id]
        if amount > available:
            amount = available
            ledger.exhausted.add(peer_id)
            if amount == 0.0:
                continue
        balances[peer_id] = available - amount
        balances[UPLOADER_ID] += amount
        log.append(LedgerEntry(time, peer_id, UPLOADER_ID, amount))
    return ledger


# one row of each CSV in one % operation; number fields take `x or 0.0`, so
# that -0.0 renders as format_sig renders it
_EPOCH_ROW = f"%s%s,{NUMBER},{NUMBER}%s"
_TRANSACTION_ROW = f"transaction,{NUMBER},%s,%s,{NUMBER}"
_BALANCE_ROW = f"balance,,,%s,{NUMBER}"


@dataclass(frozen=True)
class Epoch:
    """One span of the timeline under one equilibrium.

    Its roster, peer_ids, is read off the equilibrium's allocation, in the
    game's listing order; it is () while no peers are present.
    """

    start: float
    end: float
    equilibrium: Optional[Equilibrium]  # None when no peers are present
    game: Optional[GameInstance] = None  # the instance the epoch was solved from

    @property
    def peer_ids(self) -> tuple:
        return () if self.equilibrium is None else tuple(self.equilibrium.allocation)


@dataclass(frozen=True)
class TimelineRecord:
    epochs: tuple

    def to_csv(self, oracle_check: bool = False) -> str:
        """Rows per (epoch, peer), sorted by (epoch_start, peer_id).

        With oracle_check, each row gains an agreement flag comparing the
        epoch's price against an independent grid search on its instance.
        """
        from .formatting import csv_text, format_sig

        rows = []
        for ep in self.epochs:
            head = f"{format_sig(ep.start)},{format_sig(ep.end)},"
            eq = ep.equilibrium
            tail = ""
            if oracle_check:
                tail = ","
                if eq is not None and ep.game is not None:
                    from .experiments import cross_check

                    tail = ",yes" if cross_check(ep.game, eq.revenue)[2] else ",no"
            if eq is None:
                rows.append(f"{head},,,{tail}")
                continue
            head += format_sig(eq.price) + ","
            allocation, utilities = eq.allocation.amounts, eq.utilities
            rows += [_EPOCH_ROW % (head, peer_id, allocation[peer_id] or 0.0,
                                   utilities[peer_id] or 0.0, tail)
                     for peer_id in sorted(allocation)]
        header = ["epoch_start", "epoch_end", "price", "peer_id",
                  "allocation", "utility"]
        if oracle_check:
            header.append("oracle_agrees")
        return csv_text(tuple(header), rows)


def ledger_csv(ledger: Ledger) -> str:
    from .formatting import csv_text

    rows = [_TRANSACTION_ROW % (time or 0.0, payer, payee, amount or 0.0)
            for time, payer, payee, amount in ledger.log]
    balances = ledger.balances
    rows += [_BALANCE_ROW % (account, balances[account] or 0.0)
             for account in sorted(balances)]
    return csv_text(("record", "time", "payer", "payee", "amount"), rows)


def validate_scenario(events: Sequence[ScenarioEvent]):
    """Reject unordered events and membership errors before execution."""
    last_time = 0.0
    present = set()
    for ev in events:
        if ev.time < last_time:
            raise ValidationError(
                f"events out of order at t={ev.time} (after t={last_time})"
            )
        last_time = ev.time
        if ev.kind is EventKind.JOIN:
            pid = ev.peer.id
            if pid in present:
                raise ValidationError(f"join of already-present peer {pid!r}")
            present.add(pid)
        elif ev.kind is EventKind.LEAVE:
            if ev.peer_id not in present:
                raise ValidationError(f"leave of absent peer {ev.peer_id!r}")
            present.remove(ev.peer_id)


def run_scenario(uploader_capacity: float,
                 events: Sequence[ScenarioEvent]) -> Tuple[TimelineRecord, Ledger]:
    """Drive the event loop; return the epoch timeline and the ledger.

    The timeline starts at the first event; each join/leave closes the open
    epoch and opens a new one under the re-solved equilibrium (None while
    no peers are present). The final epoch is closed at +inf. Zero-length
    epochs created by same-time events are dropped.
    """
    uploader_capacity = _require_capacity(uploader_capacity)
    events = list(events)
    validate_scenario(events)

    ledger = Ledger()
    balances, log = ledger.balances, ledger.log
    epochs: List[Epoch] = []
    present: Dict[str, PeerProfile] = {}  # credited with the balance of its last build
    settled = 0  # the log entries before this index were charged before the last re-solve
    open_start: Optional[float] = None
    open_eq: Optional[Equilibrium] = None
    open_game: Optional[GameInstance] = None

    def close_epoch(end_time: float):
        nonlocal open_start
        if open_start is None:
            return
        if end_time > open_start:
            epochs.append(Epoch(open_start, end_time, open_eq, open_game))
        open_start = None

    def resolve(joiner: Optional[str]):
        nonlocal settled
        # a profile is rebuilt, and so validated again, only when the peer's
        # balance has moved off the credits it was built with, which only a
        # payer charged since the last re-solve or the joiner can hold. The
        # log lists a settle's payers in the game's peer order, present's,
        # and the joiner is last in present: profiles are rebuilt in
        # present's order
        moved = [entry.payer for entry in log[settled:]]
        settled = len(log)
        if joiner is not None:
            moved.append(joiner)
        for peer_id in moved:
            peer = present.get(peer_id)
            if peer is not None:
                balance = balances[peer_id]
                if balance != peer.credits:
                    present[peer_id] = PeerProfile(peer_id, balance, peer.capacity)
        if not present:
            return None, None
        game = GameInstance(uploader_capacity, tuple(present.values()))
        # one event moves the price little, so the search starts near the last
        return solve(game, near=open_eq.price if open_eq is not None else None), game

    for ev in events:
        if ev.kind is EventKind.SETTLE:
            if open_eq is not None:
                apply_transaction(ledger, open_eq, ev.time)
            continue
        close_epoch(ev.time)
        if ev.kind is EventKind.JOIN:
            joiner = ev.peer.id
            ledger.register(joiner, ev.peer.credits)
            present[joiner] = ev.peer
        else:
            joiner = None
            del present[ev.peer_id]
        open_start = ev.time
        open_eq, open_game = resolve(joiner)

    close_epoch(INFINITY)
    return TimelineRecord(tuple(epochs)), ledger
