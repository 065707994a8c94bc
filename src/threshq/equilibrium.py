"""Pure and mixed threshold equilibria from one solve of w at the integers.

The marginal delay w(x) = W(n0-1, n0), n0 = ceil(x), is a sawtooth. On a
unit interval (k, k+1] only the join probability x - k at state k moves;
those joiners queue behind the marginal customer and, with nondecreasing
rates, can only speed its service, so w is nonincreasing there. As x falls
to k the marginal customer becomes the joiner at the balk state of pure
threshold k, so w(k+) = w(k) + 1/mu_{k+1}. Pure threshold n0 is an
equilibrium iff w(n0) <= r_tilde <= w(n0+), and the interval (k, k+1]
holds a mixed root iff w(k+1) < r_tilde < w(k+), and is all equilibria iff
both equal r_tilde; on a bracket w - r_tilde is monotone and smooth.

Level-wise delay bounds decide where w is solved at all. With balk state
n0 the marginal customer waits for n0 departures; while j - 1 customers
are still ahead of it at least j and at most n0 are present, so
n0/mu_{n0} <= w(x) <= H(n0) for every x in (n0-1, n0], where
H(k) = 1/mu_1 + ... + 1/mu_k. Pure n0 is then a candidate only if
n0 <= r_tilde mu_{n0} and H(n0+1) >= r_tilde (``pure_candidates``), and
(k, k+1] is bracketed only if k+1 <= r_tilde mu_{k+1} and H(k+1) >= r_tilde.
The candidates need not be contiguous: for a two-rate policy the first
test fails between r_tilde mu_low and the service threshold.
test_w_nonincreasing_on_unit_intervals and test_level_bounds_hold in
tests/test_equilibrium.py check the monotonicity, w(k+) and the bounds on
random instances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .delay import marginal_delays
from .model import EconomicParams, ServiceRatePolicy, check_cells, check_table_size

TOL_EQ = 1e-9       # |w - r_tilde| at an equality, an indifference or a mixed root, time units
TOL_ROOT_X = 1e-10  # width of a refined mixed-root bracket
REFINE_POINTS = 63  # interior points per bracket and refinement step


class CandidateDiagnostic(NamedTuple):
    """Equilibrium test record for one pure threshold candidate; its field
    names are the report's JSON keys and CSV header."""

    n0: int
    W_marginal: float
    lower_bound: float
    upper_bound: float
    is_equilibrium: bool


@dataclass
class EquilibriumReport:
    """Classified equilibria plus per-candidate diagnostics.

    ``mixed_intervals`` holds continuum cases where every interior x is an
    equilibrium. ``candidate_range`` is the (first, last) pure candidate
    scanned, for every policy. Equilibria are classified on the recurrent class.
    """

    pure_equilibria: list[int]
    mixed_points: list[float] = field(default_factory=list)
    mixed_intervals: list[tuple[float, float]] = field(default_factory=list)
    candidate_range: tuple[float, float] = (0.0, 0.0)
    diagnostics: list[CandidateDiagnostic] = field(default_factory=list)


def _scan(params: EconomicParams, policy: ServiceRatePolicy):
    """(mu, low, high): mu[k] = mu_{k+1}, and per level n = 0..floor(r_tilde M)
    (within TOL_EQ) the level-wise tests low: n/mu_n <= r_tilde and high:
    H(n+1) >= r_tilde, with a slack of TOL_EQ + n 2^-50 r_tilde for the rounding
    of w and H (each within about n u relative, u = 2^-53). ValueError unless
    r_tilde * M is finite and the last level's full delay table passes
    model.check_table_size, before anything is built."""
    r = params.r_tilde
    if not math.isfinite(r * policy.max_rate):
        raise ValueError("r_tilde * M must be finite")
    top = math.floor(r * policy.max_rate + TOL_EQ)
    check_table_size(top, "r_tilde * M")
    mu = policy.rates(top + 1)
    n = np.arange(top + 1)
    slack = TOL_EQ + n * 2.0**-50 * r
    return (mu, n / np.concatenate((mu[:1], mu[:top])) <= r + slack,  # n/mu_n, 0 at n = 0
            np.cumsum(1.0 / mu) >= r - slack)  # H(n+1)


def pure_candidates(params: EconomicParams, policy: ServiceRatePolicy) -> np.ndarray:
    """The sorted pure thresholds n0 that pass both level-wise tests: n0 <= r_tilde mu_{n0},
    as w(n0) >= n0/mu_{n0}, and H(n0+1) >= r_tilde, as w(n0+) <= H(n0+1). Never empty (the
    first level to pass the second passes the first, H(n0) >= n0/mu_{n0}), not always
    contiguous; raises as _scan does."""
    _, low, high = _scan(params, policy)
    return np.flatnonzero(low & high)


def _diagnostics(r: float, n0s: np.ndarray, w: np.ndarray,
                 mu: np.ndarray) -> list[CandidateDiagnostic]:
    """The test of each candidate n0 given w(n0): r_tilde - 1/mu_{n0+1} <= w(n0) <= r_tilde
    within TOL_EQ (mu[k] = mu_{k+1})."""
    lower = r - 1.0 / mu[n0s]
    verdicts = (lower - TOL_EQ <= w) & (w <= r + TOL_EQ)
    return [CandidateDiagnostic(n0, wk, lo, r, ok) for n0, wk, lo, ok in zip(
        n0s.tolist(), w.tolist(), lower.tolist(), verdicts.tolist())]


def pure_equilibria(policy: ServiceRatePolicy, instances: list[EconomicParams]) -> list[list[int]]:
    """The pure equilibria of each instance, as find_equilibria reports them. The instances
    must share the arrival rate (ValueError otherwise), so w does not depend on which one
    is solved: one batched solve at the union of their pure_candidates serves them all.
    Every instance's scan is checked before anything is solved."""
    if len({p.arrival_rate for p in instances}) > 1:
        raise ValueError("pure_equilibria needs one arrival rate for all instances")
    scans = [pure_candidates(p, policy) for p in instances]
    n0s = np.unique(np.concatenate(scans))
    w = marginal_delays(policy, n0s, instances[0])
    mu = policy.rates(int(n0s[-1]) + 1)
    return [[d.n0 for d in _diagnostics(p.r_tilde, scan, w[np.searchsorted(n0s, scan)], mu)
             if d.is_equilibrium] for p, scan in zip(instances, scans)]


def find_equilibria(params: EconomicParams, policy: ServiceRatePolicy,
                    mixed_range: tuple[float, float] | None = None) -> EquilibriumReport:
    """Every pure threshold equilibrium, and with ``mixed_range`` = (x_min, x_max)
    every mixed one on (x_min, x_max].

    One batched solve gives w at pure_candidates. Candidate n0 is an
    equilibrium iff r_tilde - 1/mu_{n0+1} <= w(n0) <= r_tilde within TOL_EQ,
    with W(-1, 0) = 0 for n0 = 0 (always balk). A unit interval (k, k+1] in
    [0, floor(r_tilde M)] is searched only if the level-wise bounds let
    w(k+) >= r_tilde >= w(k+1), that is H(k+1) >= r_tilde and
    k+1 <= r_tilde mu_{k+1}; the same solve then gives w at both its ends,
    or at a range end where it cuts the interval, whether or not k is a pure
    candidate. Both ends within TOL_EQ of r_tilde make a continuum interval,
    reported whole; a sign change brackets one root; a right end exactly at
    r_tilde is a root. The brackets are refined together, REFINE_POINTS
    probes each per batched solve (even at first, then 16 even and 47 around an
    inverse-interpolation estimate), until each is at most TOL_ROOT_X wide with
    an end within TOL_EQ of r_tilde, and that end is reported.
    Roots within 1e-9 of an integer are pure thresholds and are dropped.
    """
    r = params.r_tilde
    mu, low, high = _scan(params, policy)
    n0s = np.flatnonzero(low & high)
    pts = n0s.astype(float)
    if mixed_range is not None:
        if not (0.0 < mixed_range[0] < mixed_range[1]):
            raise ValueError("need 0 < x_min < x_max")
        # into the levels, as floats: int ends would make brackets the refinement cannot move
        x_min, x_max = np.clip(mixed_range, 0.0, len(low) - 1.0).tolist()
        ks = np.arange(math.floor(x_min), math.ceil(x_max))  # (k, k+1] in the levels and the range
        ks = ks[high[ks] & low[ks + 1]]  # H(k+1) >= w(k+) >= r_tilde >= w(k+1) >= (k+1)/mu_{k+1}
        lo, hi = np.maximum(ks, x_min), np.minimum(ks + 1.0, x_max)
        pts = np.union1d(pts, np.concatenate((lo, hi)))
    w = marginal_delays(policy, pts, params)
    diagnostics = _diagnostics(r, n0s, w[np.searchsorted(pts, n0s)], mu)
    report = EquilibriumReport([d.n0 for d in diagnostics if d.is_equilibrium],
                               candidate_range=(float(n0s[0]), float(n0s[-1])),
                               diagnostics=diagnostics)
    if mixed_range is None:
        return report
    f0 = w[np.searchsorted(pts, lo)] + np.where(lo == ks, 1.0 / mu[ks], 0.0) - r
    f1 = w[np.searchsorted(pts, hi)] - r
    flat = (np.abs(f0) <= TOL_EQ) & (np.abs(f1) <= TOL_EQ)
    bracket = ~flat & (f0 != 0.0) & (f1 != 0.0) & ((f0 < 0.0) != (f1 < 0.0))
    a, b, fa, fb = lo[bracket], hi[bracket], f0[bracket], f1[bracket]
    inner = np.arange(1, REFINE_POINTS + 1) / (REFINE_POINTS + 1)
    # later every 4th of these, e and e +- width 4^-j, j = 1..23, and those under 2 TOL_ROOT_X
    # 64-fold closer to e: a bracket that stops is then under TOL_ROOT_X / 32 wide
    steps = np.r_[-4.0 ** -np.arange(23, 0, -1), 0.0, 4.0 ** -np.arange(1, 24)]
    est, live = None, np.ones(len(a), bool)  # e, the root's estimate
    while True:
        live &= (b - a > TOL_ROOT_X) | (np.minimum(np.abs(fa), np.abs(fb)) > TOL_EQ)
        if not live.any():
            break
        width = (b - a)[live, None]
        probes = a[live, None] + width * (inner if est is None else inner[::4])
        if est is not None:
            around = width * np.where(np.abs(steps) * width < 2 * TOL_ROOT_X, steps / 64, steps)
            probes = np.sort(np.column_stack((probes, est[live, None] + around)))
        # strictly inside (a, b): a probe on a = k would solve w(k), not w(k+)
        probes = np.clip(probes, np.nextafter(a, b)[live, None], np.nextafter(b, a)[live, None])
        xs = np.column_stack((a[live], probes, b[live]))
        fs = np.column_stack((fa[live], marginal_delays(policy, probes.ravel(), params)
                              .reshape(-1, REFINE_POINTS) - r, fb[live]))
        # the first point whose sign differs from the left end's (b at the latest)
        i = 1 + ((fs[:, 1:] < 0.0) != (fs[:, :1] < 0.0)).argmax(axis=1)
        rows = np.arange(len(i))
        new = xs[rows, i - 1], xs[rows, i], fs[rows, i - 1], fs[rows, i]
        # e: Neville's inverse interpolation through 8 points, later 2 (close nodes make noise)
        n = 8 if est is None else 2
        cols = rows[:, None], np.clip(i - n // 2, 0, REFINE_POINTS + 2 - n)[:, None] + np.arange(n)
        xe, fe = xs[cols], fs[cols]
        with np.errstate(all="ignore"):
            for m in range(1, n):
                xe = (fe[:, :-m] * xe[:, 1:] - fe[:, m:] * xe[:, :-1]) / (fe[:, :-m] - fe[:, m:])
        est = np.zeros(len(a)) if est is None else est
        est[live] = np.fmin(np.fmax(xe[:, 0], new[0]), new[1])  # in the bracket; NaN: left end
        moved = (new[0] != a[live]) | (new[1] != b[live])  # adjacent floats stay put
        a[live], b[live], fa[live], fb[live] = new
        live[live] = moved
    # per bracket its end nearer r_tilde, and every right end exactly at it
    near = np.minimum(np.abs(fa), np.abs(fb)) <= TOL_EQ
    roots = np.sort(np.concatenate((np.where(np.abs(fa) <= np.abs(fb), a, b)[near],
                                    hi[~flat & (f1 == 0.0)])))
    report.mixed_points = roots[np.abs(roots - np.round(roots)) > 1e-9].tolist()
    report.mixed_intervals = list(zip(lo[flat].tolist(), hi[flat].tolist()))
    return report


def sweep_mixed(params: EconomicParams, policy: ServiceRatePolicy,
                x_lo: float, x_hi: float, step: float) -> list[tuple[float, float, bool]]:
    """(x, w(x), |w - r_tilde| <= TOL_EQ) on the grid x = x_lo + i*step,
    i = 0, 1, ..., while x <= x_hi + 1e-12, keeping x > 0. With integer ends
    and step 1 the grid is exact, so this is also the sweep of pure thresholds
    n0 = x_lo..x_hi, each row's w the marginal delay W(n0-1, n0).

    Its points times its largest balk state ceil(x_hi) + 1 must pass
    model.check_cells, or ValueError is raised before the grid is built.
    """
    if not (step > 0.0 and math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise ValueError("sweep needs a finite range and a positive step")
    top = x_hi + 1e-12
    # one past the last grid point, with room for x_lo + i*step to round back
    # down to top when step is finer than the float spacing there; inf when
    # the grid is absurdly fine
    points = (top - x_lo + 4.0 * math.ulp(top)) / step + 2.0
    check_cells(points * (max(math.ceil(x_hi), 0) + 1),
                f"sweep grid of about {points:.6g} points up to x = {x_hi:g}")
    xs = x_lo + step * np.arange(max(math.floor(points), 0))
    xs = xs[(xs <= top) & (xs > 0.0)]
    w = marginal_delays(policy, xs, params)
    return list(zip(xs.tolist(), w.tolist(), (np.abs(w - params.r_tilde) <= TOL_EQ).tolist()))
