"""Monte Carlo validation: sojourn-time estimation and the two-system coupling.

Each call draws from one counter-based (Philox) stream keyed by (seed mod
2**64, stream number), so identical configs give bit-identical output. Both
simulators advance their live replications in lock-step, one vectorized event
per replication per step, and keep arrays of live replications only, filtered
after a step where one finished. ``simulate_sojourn`` estimates W(n) by the
conditional expectation of the sojourn given the jump chain, so it draws only
join coins and samples no holding times; a replication is one int code
packing the customers ahead and present. Its replications sit in blocks of
2**15, and each step runs the live blocks in up to four contiguous groups at
once, one per CPU: the first on the calling thread, the rest on a thread
pool that lives for the call. Philox is counter-based, so each group's generator
starts at the group's exact place in the call's one stream: every
replication gets the draw it would get from one generator, and the output
does not depend on the number of CPUs. In the coupling, the two systems
read the same draw for each arrival and join coin, and the same service
requirement for each initial customer; only those are ever served, so each
system tracks just the one in service, in 1-D arrays of its own, events are
picked elementwise, and a finished replication's departures go to its own row.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .model import EconomicParams, JoinStrategy, ServiceRatePolicy

_STREAM_SOJOURN = 0
_STREAM_COUPLING = 1
# a coupling block has _BLOCK_CELLS // (n0 + 1) rows of n + 2 <= n0 + 1 requirements
# (n + 1 drawn and an inf), so its state stays a few MB whatever the coupling's size
_BLOCK_CELLS = 1 << 18
# simulate_sojourn's replications per block: a block's temporaries stay small
_SOJOURN_BLOCK = 1 << 15


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


def _generator(seed: int, stream: int, pos: int = 0) -> np.random.Generator:
    """The generator keyed by (seed mod 2**64, stream) after ``pos`` uniforms:
    Philox makes four raw words per counter value, the first four at counter
    1, and a uniform takes one word."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)  # the seed mod 2**64
    bits = np.random.Philox(key=key, counter=pos // 4)
    bits.random_raw(pos % 4)
    return np.random.Generator(bits)


def _workers() -> int:
    """Threads for one simulate_sojourn step: the CPUs this process may use, at most 4."""
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), 4)
    return min(os.cpu_count() or 1, 4)


def simulate_sojourn(config: SimConfig, n: int) -> SojournEstimate:
    """Estimate W(n), the expected sojourn of a tagged customer who joins upon
    finding n present (joining even at the balk state); all future arrivals
    follow the configured strategy. Returns mean and 95% normal-approximation
    half-width.

    The tagged customer's path is the jump chain of (customers ahead, customers
    present) with arrival rate lambda * p_m and service rate mu_m at m present,
    exactly the first-step system the analytic solver uses. Given the path, the
    holding times are independent with means 1 / rate, so each step adds
    1 / rate instead of a draw: the sojourn's conditional expectation, unbiased
    for W(n) and of no larger variance (Rao-Blackwell). A replication's state
    is one code ``ahead << shift | (m - 1)``, m - 1 <= n0 < 2**shift: an
    arrival adds 1, a departure subtracts 2**shift + 1, and the code turns
    negative once the tagged customer has left. Replications sit in blocks of
    _SOJOURN_BLOCK, and each step runs the live blocks in up to _workers()
    contiguous groups; a group draws from the stream after every draw of
    earlier steps and groups, and sojourns are kept in the order they finish,
    step by step and in replication order, so the output does not depend on
    the number of CPUs.
    """
    n0 = config.strategy.balk_state
    if not (0 <= n <= n0):
        raise ValueError(f"arrival state {n} outside [0, {n0}]")
    reps = config.replications
    lp = config.params.arrival_rate * np.append(config.strategy.probs, 0.0)[1:]  # [m - 1] at m
    rate = lp + config.policy.rates(n0 + 1)
    shift = n0.bit_length()
    blocks = [(np.zeros(k), np.full(k, n << shift | n))  # n ahead, n + 1 present
              for k in (min(_SOJOURN_BLOCK, reps - s) for s in range(0, reps, _SOJOURN_BLOCK))]
    sojourn, done, pos = np.empty(reps), 0, 0
    rng = _generator(config.seed, _STREAM_SOJOURN)
    step = functools.partial(_step, hold=1.0 / rate, join=lp / rate, mask=(1 << shift) - 1)
    workers = min(_workers(), len(blocks))
    with contextlib.ExitStack() as stack:
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor  # here, not on every CLI start
            pool = stack.enter_context(ThreadPoolExecutor(workers - 1))
        while blocks:
            cuts = [len(blocks) * i // workers for i in range(workers + 1)]
            groups = [blocks[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]
            starts = list(itertools.accumulate((sum(len(t) for t, _ in g) for g in groups),
                                               initial=pos))
            # the last group's generator ends where this step's draws end, so the
            # next step's first group goes on with it
            rngs = [rng] + [_generator(config.seed, _STREAM_SOJOURN, p) for p in starts[1:-1]]
            rest = [pool.submit(step, g, r) for g, r in zip(groups[1:], rngs[1:])]
            steps = [step(groups[0], rng)] + [f.result() for f in rest]  # the first on this thread
            rng = rngs[-1]
            blocks = []
            for finished, live in steps:
                for t in finished:
                    sojourn[done:done + len(t)] = t
                    done += len(t)
                blocks += live
            pos = starts[-1]
    mean = float(np.mean(sojourn))
    sd = float(np.std(sojourn, ddof=1)) if reps > 1 else float("nan")
    half = 1.959963984540054 * sd / math.sqrt(reps) if reps > 1 else float("inf")
    return SojournEstimate(mean, half, reps)


def _step(blocks: list, rng: np.random.Generator, hold: np.ndarray, join: np.ndarray,
          mask: int) -> tuple[list, list]:
    """Advance each (t, code) block of simulate_sojourn one step with the next
    draws of ``rng``; returns the sojourns of replications that finished,
    block by block, and the blocks still live."""
    finished, kept = [], []
    for t, code in blocks:
        state = code & mask  # m - 1 with m present
        t += hold[state]
        code += (rng.random(len(code)) < join[state]) * (mask + 3) - (mask + 2)
        live = code >= 0
        k = np.count_nonzero(live)
        if k < len(code):  # compacted within the block's own arrays: no long-lived array moves
            finished.append(t[~live])
            t[:k], code[:k] = t[live], code[live]
        if k:
            kept.append((t[:k], code[:k]))
    return finished, kept


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
    dep = (np.empty((reps, n)), np.empty((reps, n + 1)))  # A: labels 1..n, B: labels 0..n
    size = max(1, _BLOCK_CELLS // (n0 + 1))
    for start in range(0, reps, size):
        _couple_block(rng, config.params.arrival_rate, probs, mu, n,
                      tuple(a[start:start + size] for a in dep))
    return CouplingOutcome(dep[0], dep[1][:, 1:])


def _couple_block(rng: np.random.Generator, lam: float, probs: np.ndarray, mu: np.ndarray,
                  n: int, dep: tuple[np.ndarray, np.ndarray]) -> None:
    """Run one block's replications, one per row of dep[0] and dep[1], until
    label n has left both systems; the d-th departure from system s (A = 0,
    B = 1) in replication r, label d - s by FCFS, is written to dep[s][r, d - 1].

    Joiners queue behind label n, the last one served, so each system keeps
    one 1-D array per quantity over the live replications: the remaining
    requirement of the one in service, departures d and size. After d
    departures it serves label d + 1 - s, whose requirement is at row ``pos``
    of the block's matrix; an inf after label n keeps a finished system from
    firing. Finished replications are dropped after each step.
    """
    k = len(dep[0])
    # S_0..S_n (A holds S_1..S_n), then inf for the label after n
    req = np.hstack((rng.exponential(1.0, (k, n + 1)), np.full((k, 1), np.inf)))
    pos, t, nxt = np.arange(k), np.zeros(k), rng.exponential(1.0 / lam, k)
    left = [req[:, 1].copy(), req[:, 0].copy()]  # A serves S_1 first, B serves S_0
    d = [np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)]
    size = [np.full(k, n), np.full(k, n + 1)]  # A starts with n present, B with n + 1
    while len(pos):
        rate = [mu[z - 1] for z in size]  # size >= 1 while a system holds label n
        fire = [t + l / r for l, r in zip(left, rate)]
        now = np.minimum(np.minimum(fire[0], fire[1]), nxt)
        first = fire[0] == now  # the first minimum fires: A, then B, then the arrival
        events = [first, (fire[1] == now) & ~first]
        for s in (0, 1):
            left[s] -= rate[s] * (now - t)
            d[s] += events[s]
            size[s] -= events[s]
            i = np.flatnonzero(events[s])
            j, di = pos[i], d[s][i]
            dep[s][j, di - 1] = now[i]
            left[s][i] = req[j, di + 1 - s]
        t, i = now, np.flatnonzero(~(events[0] | events[1]))
        coin = rng.random(len(i))
        rng.exponential(1.0, len(i))  # a joiner is never served; drawn so later draws keep their place
        nxt[i] = t[i] + rng.exponential(1.0 / lam, len(i))
        for z in size:  # a finished system's size only scales its infinite requirement
            z[i] += coin < probs[z[i]]
        keep = (d[0] < n) | (d[1] <= n)
        if not keep.all():
            pos, t, nxt = pos[keep], t[keep], nxt[keep]
            left, d, size = ([a[keep] for a in arrays] for arrays in (left, d, size))
