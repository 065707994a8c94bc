"""Monte Carlo validation: sojourn-time estimation and the two-system coupling.

Each call draws from one counter-based (Philox) generator keyed by (seed mod
2**64, stream), so identical configs give bit-identical output. Both
simulators advance their live replications in lock-step, one vectorized event
per replication per step; they keep arrays of live replications only,
filtered after a step where one finished, and write a finished replication's
results to its own row. A sojourn replication is one int code packing the
customers ahead and present. In the coupling, the two systems read the same
draw for each arrival and join coin, and the same service requirement for
each initial customer; only those are ever served, so each system tracks just
the one in service.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EconomicParams, JoinStrategy, ServiceRatePolicy

_STREAM_SOJOURN = 0
_STREAM_COUPLING = 1
# an upper bound on the requirements a coupling block holds: a replication
# holds its n + 1 <= n0 initial ones, and a block has _BLOCK_CELLS // (n0 + 1)
# replications, so a coupling's state stays a few MB whatever its size
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class SimConfig:
    seed: int
    replications: int
    params: EconomicParams
    policy: ServiceRatePolicy
    strategy: JoinStrategy

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


@dataclass(frozen=True)
class SojournEstimate:
    mean: float
    half_width_95: float
    samples: int


@dataclass
class CouplingOutcome:
    """Per-replication sojourn times of the labeled customers in both systems.

    ``t_a[r, j-1]`` and ``t_b[r, j-1]`` are the departure times of labeled
    customer j (1..n) in systems A and B for replication r. The pathwise
    ordering predicts t_a <= t_b everywhere.
    """

    t_a: np.ndarray
    t_b: np.ndarray

    @property
    def replications(self) -> int:
        return self.t_a.shape[0]

    @property
    def violation_count(self) -> int:
        """Number of (replication, customer) pairs with T_A(j) > T_B(j)."""
        return int(np.count_nonzero(self.t_a > self.t_b))

    @property
    def max_violation(self) -> float:
        """Largest positive excess T_A(j) - T_B(j) observed (0 if none)."""
        return float(max(np.max(self.t_a - self.t_b), 0.0))


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)  # the seed mod 2**64
    return np.random.Generator(np.random.Philox(key=key))


def simulate_sojourn(config: SimConfig, n: int) -> SojournEstimate:
    """Estimate the sojourn of a tagged customer who joins upon finding n
    present (joining even at the balk state); all future arrivals follow the
    configured strategy. Returns mean and 95% normal-approximation half-width.

    The tagged customer's path is the jump chain of (customers ahead, customers
    present) with arrival rate lambda * p_m and service rate mu_m at m present,
    exactly the first-step system the analytic solver uses. A replication's
    state is one code ``ahead << shift | (m - 1)``, m - 1 <= n0 < 2**shift: an
    arrival adds 1, a departure subtracts 2**shift + 1, and the code turns
    negative once the tagged customer has left, when its sojourn is stored.
    """
    n0 = config.strategy.balk_state
    if not (0 <= n <= n0):
        raise ValueError(f"arrival state {n} outside [0, {n0}]")
    reps = config.replications
    rng = _generator(config.seed, _STREAM_SOJOURN)
    lp = config.params.arrival_rate * np.append(config.strategy.probs, 0.0)[1:]  # [m - 1] at m
    rate = lp + config.policy.rates(n0 + 1)
    join = lp / rate
    shift = n0.bit_length()
    mask = (1 << shift) - 1
    rows, t, sojourn = np.arange(reps), np.zeros(reps), np.empty(reps)
    code = np.full(reps, n << shift | n)  # n ahead, m = n + 1 present
    while len(rows):
        state = code & mask  # m - 1 with m present
        t += rng.exponential(1.0, len(rows)) / rate[state]
        code += (rng.random(len(rows)) < join[state]) * (mask + 3) - (mask + 2)
        done = code < 0
        if done.any():
            sojourn[rows[done]] = t[done]
            rows, code, t = rows[~done], code[~done], t[~done]
    mean = float(np.mean(sojourn))
    sd = float(np.std(sojourn, ddof=1)) if reps > 1 else float("nan")
    half = 1.959963984540054 * sd / math.sqrt(reps) if reps > 1 else float("inf")
    return SojournEstimate(mean, half, reps)


def run_coupling(config: SimConfig, n: int) -> CouplingOutcome:
    """Couple system A (n initial customers, labels 1..n) with system B
    (n+1 initial, labels 0..n, label 0 just entered service) under the pure
    or mixed threshold strategy of ``config``, whose balk state is n0.

    Both systems share one arrival stream, one unit-mean exponential service
    requirement per initial customer, and one join-coin per future arrival;
    each requirement depletes at the state-dependent rate, so service
    durations follow the path. Simultaneous events are ordered departure from
    A, then from B, then the arrival. A system stops once its label n has
    left, so no joiner, queued behind it, is ever served. Replications
    advance in lock-step, in consecutive blocks of at most
    _BLOCK_CELLS // (n0 + 1) drawn from one generator.
    """
    n0 = config.strategy.balk_state
    if not (1 <= n <= n0 - 1):
        raise ValueError("need 1 <= n <= n0 - 1")
    rng = _generator(config.seed, _STREAM_COUPLING)
    probs = np.array(config.strategy.probs)  # probs[k] with k present, k = 0..n0
    mu = config.policy.rates(n0)  # mu[k - 1] with k present
    reps = config.replications
    dep = np.empty((reps, 2, n + 1))
    size = max(1, _BLOCK_CELLS // (n0 + 1))
    for start in range(0, reps, size):
        _couple_block(rng, config.params.arrival_rate, probs, mu, n,
                      np.arange(start, min(start + size, reps)), dep)
    return CouplingOutcome(dep[:, 0, 1:], dep[:, 1, 1:])


def _couple_block(rng: np.random.Generator, lam: float, probs: np.ndarray, mu: np.ndarray,
                  n: int, rows: np.ndarray, dep: np.ndarray) -> None:
    """Run replications ``rows`` until label n has left both systems; write
    dep[r, s, j], the departure time of label j from system s (A = 0, B = 1).

    Labels follow from FCFS order: the k-th departure from system s is label
    k - s. A joiner queues behind label n, and a system stops once label n
    has left, so only initial customers are served: each system tracks the
    remaining requirement of the one in service, and after d departures
    serves label d + 1 - s. Finished replications are dropped after each step.
    """
    k = len(rows)
    goal = np.array([n, n + 1])  # departures after which label n has left
    req = rng.exponential(1.0, (k, n + 1))  # S_0..S_n; A holds S_1..S_n
    left = req[:, 1::-1].copy()  # A serves S_1 first, B serves S_0
    d = np.zeros((k, 2), dtype=np.int64)
    size = np.tile(goal, (k, 1))  # A starts with n present, B with n + 1
    t = np.zeros(k)
    nxt = rng.exponential(1.0 / lam, k)
    while len(rows):
        done = d == goal
        rate = mu[size - 1]  # a system not done holds label n, so size >= 1
        times = np.column_stack((np.where(done, np.inf, t[:, None] + left / rate), nxt))
        ev = times.argmin(axis=1)  # the first minimum: A, then B, then the arrival
        now = times.min(axis=1)
        left -= rate * (now - t)[:, None]
        t = now
        for s in (0, 1):
            i = np.nonzero(ev == s)[0]
            d[i, s] += 1
            size[i, s] -= 1
            dep[rows[i], s, d[i, s] - s] = t[i]
            left[i, s] = req[i, np.minimum(d[i, s] + 1 - s, n)]
        i = np.nonzero(ev == 2)[0]
        coin = rng.random(len(i))
        rng.exponential(1.0, len(i))  # a joiner is never served; drawn so later draws keep their place
        nxt[i] = t[i] + rng.exponential(1.0 / lam, len(i))
        size[i] += ~done[i] & (coin[:, None] < probs[size[i]])
        keep = np.any(d != goal, axis=1)
        if not keep.all():
            rows, req, left, d, size, t, nxt = (
                a[keep] for a in (rows, req, left, d, size, t, nxt))
