"""solve's price against an exact rational reference.

The reference takes every double it reads (LN2, each peer's credits,
capacity and stored thresholds, the uploader's capacity) as the exact
rational it stands for and finds the clearing price in fractions.Fraction
arithmetic, so the only error left in the comparison is solve's own
floating-point rounding. The bound it is held to is derived per game from
the roundings of solve's inversion, not from the errors observed.
"""

import math
import random
from fractions import Fraction

from credshare import LN2, solve

from conftest import random_oversubscribed

EXACT_LN2 = Fraction(LN2)
UNIT_ROUNDOFF = Fraction(1, 2**53)


def _exact_forms(game, price):
    """Each credited peer's demand form at an exact price, as it is from
    the stored thresholds: ("capacity", d), ("zero", 0) or ("interior", c, d)
    where the demand c / (price * ln2) - d needs no clipping."""
    forms = []
    for p in game.credited():
        c, d = Fraction(p.credits), Fraction(p.capacity)
        if price <= Fraction(p.saturation_price):
            forms.append(("capacity", d))
        elif price > Fraction(p.cutoff_price):
            forms.append(("zero", Fraction(0)))
        else:
            raw = c / (price * EXACT_LN2) - d
            if raw >= d:
                forms.append(("capacity", d))
            elif raw <= 0:
                forms.append(("zero", Fraction(0)))
            else:
                forms.append(("interior", c, d))
    return forms


def _exact_demand(game, price):
    return sum((f[1] if f[0] != "interior" else f[1] / (price * EXACT_LN2) - f[2])
               for f in _exact_forms(game, price))


def exact_clearing(game):
    """exact_clearing_price(game), and the demand forms it inverts: a list
    of _exact_forms, or None where the price is a point of the scan."""
    u_k = Fraction(game.uploader_capacity)
    points = set()
    for p in game.credited():
        c, d = Fraction(p.credits), Fraction(p.capacity)
        points.update((Fraction(p.saturation_price), Fraction(p.cutoff_price),
                       c / (2 * d * EXACT_LN2), c / (d * EXACT_LN2)))
    points = sorted(points)
    assert _exact_demand(game, points[0]) > u_k, "the game is not oversubscribed"
    i = len(points) - 1
    while _exact_demand(game, points[i]) < u_k:
        i -= 1
    if i == len(points) - 1:
        return points[i], None
    lo, hi = points[i], points[i + 1]
    forms = _exact_forms(game, (lo + hi) / 2)
    fixed = sum(f[1] for f in forms if f[0] != "interior")
    credits = sum(f[1] for f in forms if f[0] == "interior")
    capacity = sum(f[2] for f in forms if f[0] == "interior")
    if credits:
        # fixed + credits / (mu ln2) - capacity = u_k; below hi, since demand
        # reaches hi from the left already short of u_k
        root = credits / ((u_k - fixed + capacity) * EXACT_LN2)
        assert root < hi
        if root > lo:
            return root, forms
    return lo, None


def exact_clearing_price(game):
    """The supremum of the prices whose exact demand reaches the uploader's
    capacity, as a Fraction, for a game whose credited peers could take more
    than that capacity.

    Exact demand, read from the stored thresholds, never rises with the
    price and drops only just above a point where some peer's form changes:
    a stored threshold, or an exact one where its hyperbola meets 0 or its
    capacity. So the scan finds the highest such point whose demand reaches
    the capacity. Above it, until the next point, every peer keeps one form
    and demand is one hyperbola, inverted exactly if it reaches the capacity
    there; otherwise the point itself is the price.
    """
    return exact_clearing(game)[0]


def _gamma(k):
    """Relative error bound of a float sum of k + 1 positive terms."""
    k = max(k, 0)
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def inversion_error_bound(game, forms):
    """Bound on |solve's price / exact price - 1| when both invert the same
    forms, from the roundings of

        price = sum(c, active) / ((u_k - sum(d, saturated) + sum(d, active)) * LN2)

    with u the unit roundoff: each sum of k terms is off by at most
    gamma(k - 1) of its value; the subtraction and the addition each round
    once (u of their result), and their input errors add up absolutely, so
    the denominator's relative error delta is that absolute error over the
    exact denominator, large where u_k - sum(d, saturated) cancels; the
    product with LN2 and the quotient round once each. LN2 itself adds
    nothing, since the reference uses the same double.
    """
    u_k = Fraction(game.uploader_capacity)
    saturated = [f[1] for f in forms if f[0] == "capacity"]
    active = [f for f in forms if f[0] == "interior"]
    sat_capacity = sum(saturated, Fraction(0))
    active_capacity = sum(f[2] for f in active)
    sat_error = _gamma(len(saturated) - 1) * sat_capacity
    difference_error = sat_error + UNIT_ROUNDOFF * (abs(u_k - sat_capacity) + sat_error)
    active_error = _gamma(len(active) - 1) * active_capacity
    denominator = u_k - sat_capacity + active_capacity
    denominator_error = difference_error + active_error + UNIT_ROUNDOFF * (
        denominator + difference_error + active_error)
    delta = denominator_error / denominator
    alpha = _gamma(len(active) - 1)  # the credits' sum
    return ((1 + alpha) * (1 + UNIT_ROUNDOFF)
            / ((1 - delta) * (1 - UNIT_ROUNDOFF))) - 1


def test_solve_is_within_its_rounding_bound_of_the_exact_price():
    """On seeded oversubscribed games of up to 8 peers, solve's price is
    within inversion_error_bound of the exact clearing price (1.5 to about
    120 ulps per game on such corpora; the errors seen stay below 8 ulps).
    Where the exact price is a point of the scan rather than a root, solve
    must return that breakpoint itself, since it does no arithmetic there."""
    rng = random.Random(7)
    inverted = 0
    for _ in range(500):
        game = random_oversubscribed(rng, 8)
        exact, forms = exact_clearing(game)
        price = solve(game).price
        error = abs(Fraction(price) - exact)
        if forms is None:
            assert error == 0, game
            continue
        inverted += 1
        assert _exact_demand(game, exact) == Fraction(game.uploader_capacity)
        bound = inversion_error_bound(game, forms) * exact
        ulp = Fraction(math.ulp(price))
        assert error <= bound, (game, float(error / ulp), float(bound / ulp))
    assert inverted >= 400
