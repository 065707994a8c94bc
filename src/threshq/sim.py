"""Monte Carlo validation: sojourn-time estimation and the two-system coupling.

Each call draws from one counter-based (Philox) stream keyed by (seed mod
2**64, stream number), so identical configs give bit-identical output.
``simulate_sojourn`` estimates W(n) by the conditional expectation of the
sojourn given the jump chain, so it draws only join coins and samples no
holding times. It runs as a population flow: a replication's state after t
steps is its number d of departures, so a batch of replications is one row
of counts by d, and each step moves a binomial share of every count at
the cost of the counts in use, not of the replications; the half-width
comes from the means of _BATCHES batches. The coupling advances its
replications in lock-step, one vectorized event per replication per step; a
finished one is retired in place (its time set to NaN, so it takes no event
and draws nothing), and the arrays are compacted once a quarter of them have
retired. The two systems read the same draw for each arrival and join coin,
and the same service requirement for each initial customer; only those are
ever served, so each system tracks just the one in service, in 1-D arrays of
its own, events are picked elementwise, and one pointer per system reads the
next requirement and places the departure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EconomicParams, JoinStrategy, ServiceRatePolicy

_STREAM_SOJOURN = 0
_STREAM_COUPLING = 1
# a coupling block has _BLOCK_CELLS // (n0 + 1) rows of n + 2 <= n0 + 1 requirements
# (n + 1 drawn and an inf), so its state stays a few MB whatever the coupling's size
_BLOCK_CELLS = 1 << 18
# simulate_sojourn's batches of replications; its half-width has B - 1 = 63 degrees of freedom
_BATCHES = 64


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
    """The generator keyed by (seed mod 2**64, stream)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)  # the seed mod 2**64
    return np.random.Generator(np.random.Philox(key=key))


def simulate_sojourn(config: SimConfig, n: int) -> SojournEstimate:
    """Estimate W(n), the expected sojourn of a tagged customer who joins upon
    finding n present (joining even at the balk state); all future arrivals
    follow the configured strategy. Returns mean and 95% normal-approximation
    half-width.

    The tagged customer's path is the jump chain of (customers ahead, customers
    present) with arrival rate lambda * p_m and service rate mu_m at m present,
    exactly the first-step system the analytic solver uses. Given the path, the
    holding times are independent with means 1 / rate, so each step adds
    1 / rate instead of a draw: the sojourn's conditional expectation Y,
    unbiased for W(n) and of no larger variance (Rao-Blackwell).

    After t steps with d departures, a replication has m = n + 1 + t - 2d
    present and n - d ahead, so d alone is its state. The replications go in
    B = min(_BATCHES, reps) batches whose sizes differ by at most 1, each one
    row of counts by d. At each step a batch's count at d adds count / rate(m)
    to the batch's sum of Y, binomial(count, join(m)) of them stay at d (their
    next event an arrival, join(m) = lambda p_m / rate(m)), and the rest move
    to d + 1; those past d = n have left. The replications at one d share one
    state and each takes its next event by an independent coin, so the counts
    have exactly the law of r independent replications' and the batch's sum
    is the sum of their Y: each batch mean is distributed as a mean of r
    independent sojourns. A step works on the columns from the first to the
    last in use, so it costs B times those columns, not the replications.

    The mean is the sum over batches over reps, and the half-width is taken
    from the batch sums by batch means, with B - 1 degrees of freedom: below
    _BATCHES replications there is one per batch, and it is the per-replication
    sample variance. Sums are taken with math.fsum, so they do not depend on
    the order of their terms.
    """
    n0 = config.strategy.balk_state
    if not (0 <= n <= n0):
        raise ValueError(f"arrival state {n} outside [0, {n0}]")
    reps = config.replications
    lp = config.params.arrival_rate * np.append(config.strategy.probs, 0.0)[1:]  # [m - 1] at m
    rate = lp + config.policy.rates(n0 + 1)
    hold, join = 1.0 / rate, lp / rate
    # the sums of Y reach about reps W(n) <= reps (n + 1) / mu_1, past the largest float for
    # rates near model.MIN_RATE, so they are taken at a scale 2^-e that keeps them below
    # 2^1000 and undone exactly at the end (e = 0 unless 1 / mu_1 is near that size)
    e = max(0, math.frexp(float(hold.max()))[1] + (reps * (n + 1)).bit_length() - 1000)
    hold = np.ldexp(hold, -e)
    b = min(_BATCHES, reps)
    size = np.full(b, reps // b, dtype=np.int64)
    size[:reps % b] += 1
    count = np.zeros((b, n + 1), dtype=np.int64)  # [batch, d]
    count[:, 0] = size  # n ahead, n + 1 present
    acc = np.zeros((b, n + 1))  # each batch's sum of Y, by d
    rng = _generator(config.seed, _STREAM_SOJOURN)
    lo, hi, t = 0, 1, 0  # columns lo..hi - 1, from the first to the last in use
    while True:
        state = n + t - 2 * np.arange(lo, hi)  # m - 1: n0 >= m - 1 >= 0 from end to end
        live = count[:, lo:hi]
        acc[:, lo:hi] += live * hold[state]
        stay = rng.binomial(live, join[state])
        go = live - stay
        live[...] = stay
        count[:, lo + 1:hi + 1] += go[:, :n - lo]  # those past d = n have left
        used = np.flatnonzero(count[:, lo:hi + 1].any(axis=0))
        if not len(used):
            break
        lo, hi, t = lo + used[0], lo + used[-1] + 1, t + 1
    total = np.array([math.fsum(row) for row in acc])
    mean = math.fsum(total) / reps
    dev = total - size * mean
    # squared at the scale 2^-f that puts max |dev| in [1/2, 1), undone exactly after sqrt
    f = math.frexp(float(np.abs(dev).max()))[1]
    dev = np.ldexp(dev, -f)
    half = (1.959963984540054 * math.ldexp(math.sqrt(math.fsum(dev * dev) * b / (b - 1)), f)
            / reps if b > 1 else float("inf"))
    return SojournEstimate(math.ldexp(mean, e), math.ldexp(half, e), reps)


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
    _BLOCK_CELLS // (n0 + 1) drawn from one generator; a block keeps its
    departures in its own (rows, n + 2) arrays and copies them into the
    outcome once its last row has finished.
    """
    n0 = config.strategy.balk_state
    if not (1 <= n <= n0 - 1):
        raise ValueError("need 1 <= n <= n0 - 1")
    rng = _generator(config.seed, _STREAM_COUPLING)
    probs = np.array(config.strategy.probs)  # probs[k] with k present, k = 0..n0
    mu = config.policy.rates(n0)  # mu[k - 1] with k present
    reps = config.replications
    dep = (np.empty((reps, n)), np.empty((reps, n + 1)))  # A: labels 1..n, B: labels 0..n
    size = max(1, _BLOCK_CELLS // (n0 + 1))
    for start in range(0, reps, size):
        _couple_block(rng, config.params.arrival_rate, probs, mu, n,
                      tuple(a[start:start + size] for a in dep))
    return CouplingOutcome(dep[0], dep[1][:, 1:])


def _couple_block(rng: np.random.Generator, lam: float, probs: np.ndarray, mu: np.ndarray,
                  n: int, dep: tuple[np.ndarray, np.ndarray]) -> None:
    """Run one block's replications, one per row of dep[0] and dep[1], until
    label n has left both systems; the departure of label j from system s
    (A = 0, B = 1) in replication r is written to dep[s][r, j - 1 + s].

    Joiners queue behind label n, the last one served, so each system keeps
    1-D arrays over the block's rows: the remaining requirement of the one
    in service, the size, and a pointer to the one in service in the block's
    flat requirements (label j of row r at r (n + 2) + j, then an inf). Its
    departures go to the pointer in the same layout, and the next
    requirement is read one slot on. A row whose two systems both hold their
    inf has finished: its time becomes NaN, so it takes no event and draws
    nothing, and the rows are compacted once a quarter have finished. Each
    step draws for its arrival rows in row order, so retiring moves no draw.
    """
    k, w = len(dep[0]), n + 2
    # S_0..S_n (A holds S_1..S_n), then inf for the label after n
    req = np.hstack((rng.exponential(1.0, (k, n + 1)), np.full((k, 1), np.inf))).ravel()
    t, nxt = np.zeros(k), rng.exponential(1.0 / lam, k)
    after = req[1:]  # after[p] is the requirement that follows slot p
    row = np.arange(0, k * w, w)
    ptr = [row + 1, row]  # A serves S_1 first, B serves S_0
    left = [req[p] for p in ptr]
    size = [np.full(k, n), np.full(k, n + 1)]  # A starts with n present, B with n + 1
    mus = np.concatenate((mu[-1:], mu))  # the rate with z present
    out = np.empty((2, k * w))  # each system's departures, label j of row r at r w + j
    retired = 0
    while len(t):
        rate = [mus[z] for z in size]
        fire = [t + l / r for l, r in zip(left, rate)]
        soonest = np.minimum(fire[0], fire[1])
        now = np.minimum(soonest, nxt)
        dt = now - t
        # the first minimum fires: A, then B (where it ties now and A does not), then the arrival
        first = fire[0] == now
        events = [first, (fire[1] == now) > first]
        for s in (0, 1):
            left[s] -= rate[s] * dt
            i = np.flatnonzero(events[s])
            p = ptr[s][i]
            out[s][p] = now[i]
            left[s][i] = after[p]
            ptr[s] += events[s]
            size[s] -= events[s]
        t, i = now, np.flatnonzero(nxt < soonest)
        coin = rng.random(len(i))
        nxt[i] = t[i] + rng.exponential(1.0 / lam, len(i))
        for z in size:  # a finished system's size only scales its infinite requirement
            zi = z[i]
            z[i] = zi + (coin < probs[zi])
        done = np.minimum(left[0], left[1]) == np.inf
        finished = np.count_nonzero(done)
        if finished:
            t[done] = np.nan
            retired += finished
            if 4 * retired >= len(t):
                keep = ~np.isnan(t)
                t, nxt = t[keep], nxt[keep]
                left, ptr, size = ([a[keep] for a in arrays] for arrays in (left, ptr, size))
                retired = 0
    for s, a in enumerate(dep):
        a[...] = out[s].reshape(k, w)[:, 1 - s:w - 1]
