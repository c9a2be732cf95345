"""Brute-force price search, used to cross-check the exact solver.

A grid search over prices for the uploader's problem (admissible iff
demand fits the capacity), deliberately dumb and vectorized with numpy; it
exists to catch mistakes in the solver, not to be a fast path. The
downloader-side probe, a grid search over one peer's purchases, is a test
reference and lives in tests/reference.py.

The price grid, its demand and its revenue depend only on the peers and the
window, so a caller searching one peer set at many capacities may hand every
search the same dict of priced windows: a capacity sweep prices its grid (and
the widened one, if a search needs it) once and redoes only the
per-capacity admissibility test and argmax. Nothing outlives the call that
owns the dict.

numpy is imported inside the functions that use it, so importing this
module (and the package, which re-exports it) does not load numpy.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from .errors import OracleError, ValidationError
from .model import LN2, GameInstance

if TYPE_CHECKING:
    import numpy as np

RESOLUTION_FRACTION = 1e-4


@dataclass(frozen=True)
class GridSpec:
    """A closed price window and the step to sweep it with."""

    price_min: float
    price_max: float
    resolution: float

    def __post_init__(self):
        if not (0 < self.price_min < self.price_max):
            raise ValidationError(
                f"need 0 < price_min < price_max, got [{self.price_min}, {self.price_max}]"
            )
        if self.resolution <= 0:
            raise ValidationError(f"resolution must be > 0, got {self.resolution}")

    @classmethod
    def for_game(cls, game: GameInstance) -> "GridSpec":
        """Window from half the saturation floor up to the market top.

        Raises OracleError when the window is so narrow (subnormal
        thresholds) that its step rounds to 0.
        """
        if not game.credited():
            raise ValidationError("grid window undefined without credited peers")
        price_min = 0.5 * game.saturation_floor
        price_max = game.market_top
        if price_min <= 0:
            price_min = price_max * 1e-6
        resolution = RESOLUTION_FRACTION * (price_max - price_min)
        if resolution == 0.0:
            raise OracleError(
                f"the grid step over [{price_min}, {price_max}] rounds to 0"
            )
        return cls(price_min, price_max, resolution)

    def prices(self) -> "np.ndarray":
        import numpy as np

        count = int(math.floor((self.price_max - self.price_min) / self.resolution)) + 1
        return self.price_min + self.resolution * np.arange(count)


def demand_on_grid(game: GameInstance, prices: "np.ndarray") -> "np.ndarray":
    """Vectorized total demand at each price (same piecewise rule, re-derived)."""
    import numpy as np

    total = np.zeros_like(prices, dtype=float)
    for p in game.peers:
        if p.credits <= 0:
            continue
        # below a subnormal saturation price the quotient overflows to inf;
        # the clip and the saturation mask turn that into the capacity
        with np.errstate(over="ignore"):
            interior = p.credits / (prices * LN2) - p.capacity
        x = np.clip(interior, 0.0, p.capacity)
        x = np.where(prices <= p.saturation_price, p.capacity, x)
        x = np.where(prices > p.cutoff_price, 0.0, x)
        total += x
    return total


def grid_search_price(game: GameInstance, spec: Optional[GridSpec] = None,
                      grids: Optional[dict] = None) -> Tuple[float, float]:
    """Exhaustive price search; returns (best price, best revenue).

    A grid price is admissible only when the demand it draws fits the
    capacity (the uploader cannot ration a uniform price). If the window
    contains no admissible price it is widened upward once by its own
    width; a second failure, or a widened top past the float range, raises
    OracleError.

    grids, which searches of one peer set may share, maps each window
    priced so far to (prices, demand, prices * demand); a search adds the
    windows it prices to it.
    """
    import numpy as np

    if spec is None:
        spec = GridSpec.for_game(game)
    if grids is None:
        grids = {}
    u_k = game.uploader_capacity

    def search(s: GridSpec):
        grid = grids.get(s)
        if grid is None:
            prices = s.prices()
            demand = demand_on_grid(game, prices)
            grid = grids[s] = (prices, demand, prices * demand)
        prices, demand, earned = grid
        admissible = demand <= u_k
        if not np.any(admissible):
            return None
        revenue = np.where(admissible, earned, -np.inf)
        best = revenue.max()
        # highest admissible price on revenue ties
        idx = np.flatnonzero(revenue == best)[-1]
        return float(prices[idx]), float(revenue[idx])

    found = search(spec)
    if found is None:
        top = spec.price_max + (spec.price_max - spec.price_min)
        if not math.isfinite(top):
            raise OracleError(
                f"no admissible price in [{spec.price_min}, {spec.price_max}], "
                "and widening the window overflows the float range"
            )
        found = search(GridSpec(spec.price_max, top, spec.resolution))
    if found is None:
        raise OracleError(
            f"no admissible price in [{spec.price_min}, {spec.price_max}] "
            "or the widened window"
        )
    return found


def revenue_agreement(game: GameInstance, solver_revenue: float,
                      oracle_revenue: float, spec: GridSpec) -> bool:
    """Whether two revenues are within one grid cell of each other.

    The slack bounds |d(price*demand)/d price| times the resolution:
    demand is at most the capacity near an admissible optimum and
    price * |demand slope| is at most capacity plus total peer capacity.
    """
    slack = spec.resolution * (2.0 * game.uploader_capacity + game.total_capacity)
    slack += 1e-9 * (1.0 + abs(solver_revenue))
    return abs(oracle_revenue - solver_revenue) <= slack
