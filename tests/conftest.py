import math
import random
import sys

import pytest
from hypothesis import settings

from credshare import GameInstance, PeerProfile

# property tests draw the same examples on every run, and only so many
settings.register_profile("credshare", derandomize=True, max_examples=200,
                          deadline=None, database=None)
settings.load_profile("credshare")

EXAMPLE4_CREDITS = (400.0, 300.0, 200.0, 100.0)
EXAMPLE4_CAPACITIES = (2.0, 1.5, 1.0, 0.5)


def ldexp_normal(x, k):
    """x * 2**k, which is exact in the normal range; None when a nonzero x
    would leave that range. The scaling-relation tests skip such draws."""
    try:
        y = math.ldexp(x, k)
    except OverflowError:
        return None
    return y if x == 0.0 or abs(y) >= sys.float_info.min else None


def make_game(uploader_capacity, specs):
    """specs: iterable of (credits, capacity) pairs, ids peer1..peerN."""
    peers = [
        PeerProfile(f"peer{i}", c, d) for i, (c, d) in enumerate(specs, start=1)
    ]
    return GameInstance(uploader_capacity, peers)


@pytest.fixture
def example4_game():
    return make_game(2.0, zip(EXAMPLE4_CREDITS, EXAMPLE4_CAPACITIES))


def random_oversubscribed(rng: random.Random, max_peers: int = 6) -> GameInstance:
    """Instance from the standard random family: any ratio spread allowed."""
    n = rng.randint(1, max_peers)
    peers = [
        PeerProfile(f"p{i}", rng.uniform(1.0, 500.0), rng.uniform(0.1, 5.0))
        for i in range(1, n + 1)
    ]
    total = sum(p.capacity for p in peers)
    u_k = rng.uniform(0.0, total)
    while not 0.0 < u_k < total:
        u_k = rng.uniform(0.0, total)
    return GameInstance(u_k, peers)


def random_interleaved(rng: random.Random, max_peers: int = 6) -> GameInstance:
    """Instance whose priority ratios satisfy the strict interleaving
    h_1 > ... > h_n > h_1/2 (every saturation threshold below every cutoff)."""
    n = rng.randint(1, max_peers)
    top = rng.uniform(10.0, 200.0)
    ratios = sorted((rng.uniform(0.55 * top, top) for _ in range(n)), reverse=True)
    while len(set(ratios)) < n or (n > 1 and ratios[-1] <= 0.5 * ratios[0]):
        ratios = sorted((rng.uniform(0.55 * top, top) for _ in range(n)), reverse=True)
    peers = []
    for i, h in enumerate(ratios, start=1):
        d = rng.uniform(0.1, 5.0)
        peers.append(PeerProfile(f"p{i}", h * d, d))
    total = sum(p.capacity for p in peers)
    u_k = rng.uniform(0.05 * total, 0.95 * total)
    return GameInstance(u_k, peers)
