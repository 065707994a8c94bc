"""Independent reference computations used only by the tests.

These deliberately avoid the library's wavefront kernel: the dense oracle
assembles the full first-step linear system and hands it to a generic
solver; the loop oracle solves the triangular system one entry at a time
on its band, and past it writes the exact (n + 1)/M;
the paper's closed form gives the pure equilibria below a two-rate
policy's service threshold from r_tilde * mu_low alone; the
below-threshold brute force checks the two-sided delay condition
directly with the constant-low-rate closed forms; the best-response scan
applies the definition of a pure equilibrium to dense solves; the contiguous
scan is the pure scan of the loose delay bounds n0/M <= w(n0) <= n0/mu_1,
every integer from r_tilde mu_1 - 1 to r_tilde M, both ends within 1e-9 of a
count, and the contiguous search runs ``find_equilibria`` on it, every
candidate tested and every unit interval searched, to show what the
level-wise bounds leave out; the grid
loop builds the mixed sweep's grid one point at a time; the grid search finds
mixed roots by probing each unit interval and bisecting every sign change,
without assuming that w is monotone there; the ring-buffer coupling block
stores every customer's requirement, joiners included, in an n0-wide ring
per system and replaces ``threshq.sim._couple_block`` when a test patches
it in; the masked sojourn loop keeps every replication in full-size arrays
behind an alive mask, re-indexes them all at every step, and adds each
step's mean holding time from rates it recomputes from the state, one join
coin per replication: the estimator in law, replication by replication; the
loop flow moves the library's batch counts one scalar binomial at a time,
and the exact sojourn moments solve the first-step recursion for the mean
and second moment of the summed holding means; the exact marginal delay
solves the loop oracle's system in fractions.Fraction, with no rounding. The
writer oracles are the CLI's earlier writers, the delay CSV built as one
string by an f-string per entry and the report through ``json.dumps`` with
``indent=2``, and a CSV whose cells are formatted by their exact type.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np

from threshq import equilibrium, sim
from threshq.delay import marginal_delays
from threshq.model import strategy_from_x
from threshq.sim import _STREAM_SOJOURN, SimConfig, SojournEstimate, _generator

TOL_INT = 1e-9  # integrality test for r_tilde * mu_low in the closed form


def _rate(policy, m):
    return float(policy.rates(m)[m - 1])  # mu_m, the rate with m present


def dense_delay_solve(policy, strategy, params):
    """Solve the W(n, m) system as one dense linear system.

    Returns a dict {(n, m): W}. Equations, one per unknown:
    (lam p_m + mu_m) W(n,m) - lam p_m W(n,m+1) - mu_m W(n-1,m-1) = 1,
    with the last term absent for n = 0 and the middle absent at m = n0
    (where p_{n0} = 0 anyway).
    """
    n0 = strategy.balk_state
    if n0 == 0:
        return {}
    lam = params.arrival_rate
    unknowns = [(n, m) for n in range(n0) for m in range(n + 1, n0 + 1)]
    index = {pair: i for i, pair in enumerate(unknowns)}
    size = len(unknowns)
    A = np.zeros((size, size))
    b = np.ones(size)
    for (n, m), i in index.items():
        pm = strategy.probs[m]
        mum = _rate(policy, m)
        A[i, i] = lam * pm + mum
        if m < n0:
            A[i, index[(n, m + 1)]] = -lam * pm
        if n >= 1:
            A[i, index[(n - 1, m - 1)]] = -mum
    sol = np.linalg.solve(A, b)
    return {pair: sol[i] for pair, i in index.items()}


class UnsnappedThreshold:
    """The threshold-x strategy built independently of the library: join
    probabilities min(max(x - m, 0), 1) for m = 0..ceil(x), in plain Python
    floats, used exactly as computed however close to 0 or 1. Offers the two
    members the oracles read, ``balk_state`` and ``probs``."""

    def __init__(self, x: float):
        self.balk_state = math.ceil(x)
        self.probs = tuple(min(max(x - m, 0.0), 1.0) for m in range(self.balk_state + 1))


def closed_form_below_T(policy, n):
    """Delay (n+1)/mu_low for a joiner at state n when the balk state stays
    at or below the service threshold, so only the low rate is ever used."""
    if policy.threshold_form is None:
        raise ValueError("closed form requires a two-rate threshold policy")
    if n < 0:
        raise ValueError("state must be nonnegative")
    _, mu_low, _ = policy.threshold_form
    return (n + 1) / mu_low


def best_response_equilibria(params, policy, tol=1e-9, levels=None):
    """Pure threshold equilibria by definition, for n0 in ``levels`` (by default
    every level 0..floor(r_tilde M); each costs a dense solve of n0 (n0+1)/2
    unknowns).

    With everyone joining below n0 and balking at n0, n0 is an equilibrium
    when an arrival at every state n < n0 joins, r_tilde - W(n, n+1) >= -tol,
    and one at n0 does not, r_tilde - W(n0) <= tol, where the joiner at the
    balk state waits W(n0) = 1/mu_{n0+1} + W(n0-1, n0) (W(-1, 0) = 0).
    """
    r = params.r_tilde
    hits = []
    for n0 in range(math.floor(r * policy.max_rate + tol) + 1) if levels is None else levels:
        W = dense_delay_solve(policy, strategy_from_x(n0), params)
        joins = all(r - W[(n, n + 1)] >= -tol for n in range(n0))
        at_balk = 1.0 / _rate(policy, n0 + 1) + (W[(n0 - 1, n0)] if n0 else 0.0)
        if joins and r - at_balk <= tol:
            hits.append(n0)
    return hits


def contiguous_scan(params, policy):
    """Every integer from r_tilde mu_1 - 1 to r_tilde M, both ends within 1e-9:
    the pure candidates the loose bounds n0/M <= w(n0) <= n0/mu_1 leave."""
    r = params.r_tilde
    return range(max(math.ceil(r * _rate(policy, 1) - 1.0 - 1e-9), 0),
                 math.floor(r * policy.max_rate + 1e-9) + 1)


def contiguous_equilibria(params, policy, mixed_range=None):
    """``find_equilibria`` with every integer of contiguous_scan a candidate and
    every unit interval between them searched: the level-wise tests of
    ``equilibrium._scan`` are replaced by ones that pass exactly the levels of
    contiguous_scan, after it has made its own checks and refusals."""
    scan = contiguous_scan(params, policy)
    passes = np.arange(scan.stop) >= scan.start
    scan_checked = equilibrium._scan

    def every_level(params, policy):
        scan_checked(params, policy)
        return policy.rates(scan.stop), passes, passes

    with mock.patch.object(equilibrium, "_scan", every_level):
        return equilibrium.find_equilibria(params, policy, mixed_range)


def threshold_policy_below_T(params, policy):
    """The paper's closed form for the pure equilibria in {0..T} of a policy
    whose rates take two values, mu_l on states 1..T and mu_h above
    (``policy.threshold_form``).

    With y = r_tilde * mu_low: y integer and y <= T gives {y-1, y}; y
    non-integer below T gives {floor(y)}; T < y <= T + mu_l/mu_h with
    floor(y) = T gives {T}; otherwise none. The boundary
    y = T + mu_l/mu_h is included (weak inequality); both tests allow TOL_INT.
    """
    if policy.threshold_form is None:
        raise ValueError("requires a two-rate threshold policy")
    T, mu_l, mu_h = policy.threshold_form
    y = params.r_tilde * mu_l
    near = round(y)
    if abs(y - near) <= TOL_INT:
        if near <= T:
            return sorted({k for k in (near - 1, near) if k >= 0})
        return []
    fl = math.floor(y)
    if fl < T:
        return [fl]
    if fl == T and y <= T + mu_l / mu_h + TOL_INT:
        return [T]
    return []


def brute_force_below_threshold(params, policy, tol=1e-9):
    """Pure equilibria with balk state in {0..T} for a two-rate policy,
    checked candidate by candidate from the closed-form delays.

    W(n0-1, n0) = n0/mu_l while the balk state stays at or below T, and the
    hypothetical joiner at n0 sees rate mu_l below T and mu_h at T.
    """
    T, mu_l, mu_h = policy.threshold_form
    r = params.r_tilde
    hits = []
    for n0 in range(0, T + 1):
        w = n0 / mu_l
        mu_next = mu_l if n0 < T else mu_h
        if r - 1.0 / mu_next - tol <= w <= r + tol:
            hits.append(n0)
    return hits


def naor_set(r_tilde, mu):
    """Classical constant-rate equilibrium set {n >= 0 : r mu - 1 <= n <= r mu}."""
    # a 1e-9 tolerance on the count r mu at both ends, so that a product one ulp
    # from an integer is classified as the solver does. The solver keeps it at the
    # top level only; its low end applies 1e-9 to time, n >= r - 1/mu - 1e-9, so
    # the two differ only where r mu - 1 lies above an integer by more than 1e-9
    # and at most 1e-9 mu, a window that exists only for mu > 1
    lo = max(math.ceil(r_tilde * mu - 1.0 - 1e-9), 0)
    hi = math.floor(r_tilde * mu + 1e-9)
    return [n for n in range(lo, hi + 1)]


def sweep_grid_loop(x_lo, x_hi, step):
    """The mixed sweep's grid point by point: x = x_lo + i*step for
    i = 0, 1, ... until x > x_hi + 1e-12, keeping x > 0."""
    xs = []
    i = 0
    while True:
        x = x_lo + i * step
        if x > x_hi + 1e-12:
            return xs
        if x > 0.0:
            xs.append(x)
        i += 1


def loop_delay_solve(policy, strategy, params):
    """The triangular system solved entry by entry on its band, as an (n0, n0+1) array.

    With K the count of prefix rates below the tail rate M, an entry past
    the band, m - n > K, is (n + 1.0)/M. Row n = 0 sweeps m backward from
    n0 (where W(0, n0) = 1/mu_{n0} when K >= n0); each later row n uses row
    n - 1. Each band entry is evaluated in the same order as the library's
    wavefront kernel, so the two agree bit for bit; entries outside
    0 <= n < m <= n0 are NaN.
    """
    n0 = strategy.balk_state
    lam, M = params.arrival_rate, policy.max_rate
    K = int(np.count_nonzero(policy.prefix < M))
    W = np.full((max(n0, 1), n0 + 1), np.nan)
    mu = [_rate(policy, m) for m in range(1, n0 + 1)]  # mu[m-1] = mu_m
    p = strategy.probs
    for n in range(n0):
        for m in range(n0, n, -1):
            if m - n > K:
                W[n, m] = (n + 1.0) / M
                continue
            lp = lam * p[m]
            denom = lp + mu[m - 1]
            val = 1.0 / denom
            if m < n0:
                val += (lp / denom) * W[n, m + 1]
            if n >= 1:
                val += (mu[m - 1] / denom) * W[n - 1, m - 1]
            W[n, m] = val
    return W


def exact_marginal_delay(lam, policy, x) -> Fraction:
    """w(x) = W(n0 - 1, n0), n0 = ceil(x), in exact rational arithmetic: the
    whole first-step system of loop_delay_solve, band or not, in its loop order, over
    fractions.Fraction from the exact values of lam, the policy's rates and
    x, with join probabilities min(max(x - m, 0), 1); W(-1, 0) = 0."""
    x, lam = Fraction(x), Fraction(lam)
    n0 = math.ceil(x)
    mu = [Fraction(rate) for rate in policy.rates(n0).tolist()]  # mu[m-1] = mu_m
    p = [min(max(x - m, 0), 1) for m in range(n0 + 1)]
    row = {0: Fraction(0)}  # W(-1, 0), the answer at n0 = 0; row 0 reads no row before it
    for n in range(n0):
        prev, row = row, {}
        for m in range(n0, n, -1):
            lp = lam * p[m]
            denom = lp + mu[m - 1]
            val = 1 / denom
            if m < n0:
                val += (lp / denom) * row[m + 1]
            if n >= 1:
                val += (mu[m - 1] / denom) * prev[m - 1]
            row[m] = val
    return row[n0]


def grid_mixed_equilibria(params, policy, x_min, x_max):
    """Mixed equilibria w(x) = r_tilde on (x_min, x_max), one unit interval
    at a time: w at ``lo + 1e-9`` and at 64 equal steps to the interval's
    right end, one bisection per sign change between neighbours. Each
    bisection runs until its bracket is at most 1e-10 wide and its midpoint
    within 1e-9 of r_tilde, or until it cannot be halved.

    An interval whose probes all lie within 1e-9 of r_tilde is reported
    whole. A root within 1e-9 of an integer (a pure threshold) or with a
    residual over 1e-9 is dropped, and one within 1e-8 of an earlier root
    is a duplicate. A right end exactly at r_tilde is a root.
    """
    r, probes, tol_root = params.r_tilde, 64, 1e-9

    def f(x):
        return float(marginal_delays(policy, [x], params)[0]) - r

    def bisect(a, b, fa):
        while True:
            mid = 0.5 * (a + b)
            fm = f(mid)
            if fm == 0.0 or not a < mid < b or (b - a <= 1e-10 and abs(fm) <= tol_root):
                return mid
            if (fa < 0.0) != (fm < 0.0):
                b = mid
            else:
                a, fa = mid, fm

    def keep(root):
        return (abs(root - round(root)) > 1e-9 and abs(f(root)) <= tol_root
                and not any(abs(root - p) <= 1e-8 for p in points))

    points, intervals = [], []
    for k in range(max(math.floor(x_min), 0), math.ceil(x_max)):
        lo, hi = max(float(k), x_min), min(k + 1.0, x_max)
        if hi <= lo:
            continue
        xs = [lo + 1e-9] + [lo + (hi - lo) * i / probes for i in range(1, probes + 1)]
        fs = (marginal_delays(policy, xs, params) - r).tolist()
        if all(abs(v) <= tol_root for v in fs):
            intervals.append((lo, hi))
            continue
        for i in range(probes):
            fa, fb = fs[i], fs[i + 1]
            if fa == 0.0:
                root = xs[i]
            elif fb == 0.0 or (fa < 0.0) == (fb < 0.0):
                continue
            else:
                root = bisect(xs[i], xs[i + 1], fa)
            if keep(root):
                points.append(root)
        if fs[-1] == 0.0 and keep(hi):
            points.append(hi)
    return sorted(points), intervals


def ring_couple_block(rng: np.random.Generator, lam: float, probs: np.ndarray, mu: np.ndarray,
                      n: int, dep: tuple[np.ndarray, np.ndarray]) -> None:
    """Run the replications of one block, one per row of dep[0] and dep[1],
    until label n has left both systems; write the d-th departure time from
    system s (A = 0, B = 1) in replication r to dep[s][r, d - 1].

    Labels follow from FCFS order: the d-th departure from system s is label
    d - s. Each system keeps a ring buffer of remaining requirements, width
    n0 since at most n0 are ever present, with its head at slot
    (departures mod n0). A joiner, never served, gets an inf requirement, so
    one ever served would leave at an inf time. Finished replications are
    dropped after each step.
    """
    n0 = len(mu)
    k = len(dep[0])
    rows = np.arange(k)
    goal = np.array([n, n + 1])  # departures after which label n has left
    rem = np.zeros((k, 2, n0))
    req = rng.exponential(1.0, (k, n + 1))  # S_0..S_n; A holds S_1..S_n
    rem[:, 0, :n] = req[:, 1:]
    rem[:, 1, :n + 1] = req
    d = np.zeros((k, 2), dtype=np.int64)
    size = np.tile(goal, (k, 1))  # A starts with n present, B with n + 1
    t = np.zeros(k)
    nxt = rng.exponential(1.0 / lam, k)
    systems = np.arange(2)
    while len(rows):
        live = np.arange(len(rows))
        head = (live[:, None], systems, d % n0)
        done = d == goal
        rate = mu[size - 1]  # a system not done holds label n, so size >= 1
        left = rem[head]
        times = np.column_stack((np.where(done, np.inf, t[:, None] + left / rate), nxt))
        ev = times.argmin(axis=1)  # the first minimum: A, then B, then the arrival
        now = times[live, ev]
        rem[head] = left - rate * (now - t)[:, None]
        t = now
        for s in (0, 1):
            i = np.nonzero(ev == s)[0]
            d[i, s] += 1
            size[i, s] -= 1
            dep[s][rows[i], d[i, s] - 1] = t[i]
        i = np.nonzero(ev == 2)[0]
        coin = rng.random(len(i))
        nxt[i] = t[i] + rng.exponential(1.0 / lam, len(i))
        join = ~done[i] & (coin[:, None] < probs[size[i]])
        j, s = np.nonzero(join)
        r = i[j]
        rem[r, s, (d[r, s] + size[r, s]) % n0] = np.inf
        size[r, s] += 1
        keep = np.any(d != goal, axis=1)
        if not keep.all():
            rows, rem, d, size, t, nxt = (a[keep] for a in (rows, rem, d, size, t, nxt))


def masked_simulate_sojourn(config: SimConfig, n: int) -> SojournEstimate:
    """W(n) estimated replication by replication, as a mask over all of them:
    each step gathers the live ones with ``np.nonzero(alive)``, recomputes
    their rates from the state, adds the mean holding time 1 / rate, draws one
    join coin each, and scatters the results back into full-size arrays. The
    mean and the sample sd are taken over the sojourns, and the half-width is
    1.96 sd / sqrt(reps). This estimator has the law of
    ``threshq.sim.simulate_sojourn`` below _BATCHES replications and the same
    mean in law above, from other draws."""
    n0 = config.strategy.balk_state
    if not (0 <= n <= n0):
        raise ValueError(f"arrival state {n} outside [0, {n0}]")
    reps = config.replications
    lam = config.params.arrival_rate
    rng = _generator(config.seed, _STREAM_SOJOURN)
    pvec = np.append(config.strategy.probs, 0.0)
    muvec = config.policy.rates(n0 + 1)
    ahead = np.full(reps, n, dtype=np.int64)
    total = np.full(reps, n + 1, dtype=np.int64)
    sojourn = np.zeros(reps)
    finish_step = np.zeros(reps, dtype=np.int64)
    alive = np.ones(reps, dtype=bool)
    step = 0
    while True:
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        m = total[idx]
        lp = lam * pvec[m]
        rate = lp + muvec[m - 1]
        sojourn[idx] += 1.0 / rate
        arrive = rng.random(idx.size) < lp / rate
        total[idx] = np.where(arrive, m + 1, m - 1)
        cur = ahead[idx]
        ahead[idx] = np.where(arrive, cur, cur - 1)
        gone = idx[(~arrive) & (cur == 0)]
        alive[gone] = False
        finish_step[gone] = step
        step += 1
    sojourn = sojourn[np.argsort(finish_step, kind="stable")]
    mean = float(np.mean(sojourn))
    sd = float(np.std(sojourn, ddof=1)) if reps > 1 else float("nan")
    half = 1.959963984540054 * sd / math.sqrt(reps) if reps > 1 else float("inf")
    return SojournEstimate(mean, half, reps)


def loop_flow_simulate_sojourn(config: SimConfig, n: int) -> SojournEstimate:
    """``threshq.sim.simulate_sojourn`` as Python loops: the same batches,
    each a dict of its nonzero counts by departures d (numpy takes no draw
    for a zero count), and at each step one scalar ``rng.binomial(count,
    join)`` per batch and d in that order, with the rates recomputed from
    m = n + 1 + t - 2d. Same draws in the same order and math.fsum for every
    sum, so it agrees with the library bit for bit."""
    n0 = config.strategy.balk_state
    if not (0 <= n <= n0):
        raise ValueError(f"arrival state {n} outside [0, {n0}]")
    reps = config.replications
    lam = config.params.arrival_rate
    p = list(config.strategy.probs) + [0.0]
    mu = config.policy.rates(n0 + 1).tolist()
    b = min(sim._BATCHES, reps)
    sizes = [reps // b + (i < reps % b) for i in range(b)]
    rng = _generator(config.seed, _STREAM_SOJOURN)
    count = [{0: s} for s in sizes]  # a batch's nonzero counts by d
    acc = [[0.0] * (n + 1) for _ in range(b)]
    t = 0
    while any(count):
        moved = [{} for _ in range(b)]
        for i in range(b):
            for d in sorted(count[i]):
                c, m = count[i][d], n + 1 + t - 2 * d
                lp = lam * p[m]
                rate = lp + mu[m - 1]
                acc[i][d] += c * (1.0 / rate)
                stay = int(rng.binomial(int(c), float(lp / rate)))
                for e, k in ((d, stay), (d + 1, c - stay)):
                    if k and e <= n:
                        moved[i][e] = moved[i].get(e, 0) + k
        count, t = moved, t + 1
    total = [math.fsum(row) for row in acc]
    mean = math.fsum(total) / reps
    square = math.fsum((y - s * mean) * (y - s * mean) for y, s in zip(total, sizes))
    half = 1.959963984540054 * math.sqrt(square * b / (b - 1)) / reps if b > 1 else float("inf")
    return SojournEstimate(mean, half, reps)


def exact_sojourn_moments(config: SimConfig, n: int) -> tuple[float, float]:
    """E[Y] and E[Y^2] for Y, the sum of the mean holding times 1 / rate along
    the tagged customer's jump chain from n ahead and n + 1 present, by the
    first-step recursion E[Y] = h + E[Y'] and E[Y^2] = h^2 + 2h E[Y'] + E[Y'^2],
    Y' the rest of the path after a step from a state with holding mean h:
    an arrival (probability lambda p_m / rate) keeps those ahead and adds one
    present, a departure leaves one ahead fewer, or ends the path from 0
    ahead. States with a ahead are solved for a = 0, 1, ..., each m downward
    from n0 + 1."""
    n0 = config.strategy.balk_state
    lam = config.params.arrival_rate
    p = list(config.strategy.probs) + [0.0]
    mu = config.policy.rates(n0 + 1).tolist()
    first, second = {}, {}
    for a in range(n + 1):
        for m in range(n0 + 1, a, -1):
            lp = lam * p[m]
            h, q = 1.0 / (lp + mu[m - 1]), lp / (lp + mu[m - 1])
            up = (first[a, m + 1], second[a, m + 1]) if q > 0.0 else (0.0, 0.0)
            down = (first[a - 1, m - 1], second[a - 1, m - 1]) if a else (0.0, 0.0)
            y1, y2 = (q * u + (1.0 - q) * v for u, v in zip(up, down))
            first[a, m], second[a, m] = h + y1, h * h + 2.0 * h * y1 + y2
    return first[n, n + 1], second[n, n + 1]


def loop_delay_csv(table) -> str:
    """The delay table's CSV text, one f-string per entry."""
    lines = ["n,m,W"]
    for n in range(table.n0):
        row = table.entries[n, n + 1:].tolist()
        lines += [f"{n},{m},{w:.17g}" for m, w in enumerate(row, n + 1)]
    return "\n".join(lines) + "\n"


def dumps_report(report) -> str:
    """The equilibria report as json.dumps writes its dict, and a newline."""
    return json.dumps({
        "pure": list(report.pure_equilibria),
        "mixed_points": list(report.mixed_points),
        "mixed_intervals": [[a, b] for a, b in report.mixed_intervals],
        "range": list(report.candidate_range),
        "diagnostics": [d._asdict() for d in report.diagnostics],
        "scope": "recurrent-class",
    }, indent=2) + "\n"


def typed_csv(header, rows) -> str:
    """CSV text with each cell formatted by its exact type: text as given, a
    flag as 1/0, an int in full, a real to 17 significant digits."""
    def cell(v):
        kind = type(v)
        if kind is bool:
            return "1" if v else "0"
        return v if kind is str else "%d" % v if kind is int else format(v, ".17g")
    return "".join(",".join(map(cell, row)) + "\n" for row in (header, *rows))
