"""Pure and mixed threshold equilibrium search.

A pure threshold n0 is an equilibrium in the recurrent class iff
r_tilde - 1/mu_{n0+1} <= W(n0-1, n0) <= r_tilde. The delay bounds
n0/M <= W(n0-1, n0) <= n0/mu_1 confine such n0 to the integers from
r_tilde mu_1 - 1 to r_tilde M, so one scan of that range, scored in one
batched solve, finds them all; the two-rate closed form below the service
threshold is a corollary the tests cross-check. A mixed threshold x is an
equilibrium iff the marginal delay w(x) equals r_tilde. On a unit interval
(k, k+1] only the join probability x - k at state k moves; those joiners
queue behind the marginal customer, and with nondecreasing rates they can
only speed its service, so w is nonincreasing there and the interval's two
ends decide its roots. test_w_nonincreasing_on_unit_intervals in
tests/test_equilibrium.py checks this on random instances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .delay import MAX_TABLE_CELLS, marginal_delays
from .model import EconomicParams, ServiceRatePolicy

TOL_EQ = 1e-9       # equality / indifference tolerance, time units
TOL_INT = 1e-9      # integrality test for r_tilde * mu_low
TOL_ROOT = 1e-9     # |w(x) - r_tilde| at a reported mixed equilibrium
TOL_ROOT_X = 1e-10  # width of a refined mixed-root bracket
REFINE_POINTS = 63  # interior points per bracket and refinement step
_EDGE_PROBE = 1e-9  # offset of an interval's left end past an integer


# the fields of a CandidateDiagnostic as the report names them: the JSON keys
# and the CSV header
DIAGNOSTIC_KEYS = ("n0", "W_marginal", "lower_bound", "upper_bound", "is_equilibrium")


class CandidateDiagnostic(NamedTuple):
    """Equilibrium test record for one pure threshold candidate."""

    n0: int
    w_marginal: float
    lower_bound: float
    upper_bound: float
    is_equilibrium: bool


@dataclass
class EquilibriumReport:
    """Classified equilibria plus per-candidate diagnostics.

    ``mixed_intervals`` holds continuum cases where every interior x is an
    equilibrium. Equilibria are classified on the recurrent class.
    """

    pure_equilibria: list[int]
    mixed_points: list[float] = field(default_factory=list)
    mixed_intervals: list[tuple[float, float]] = field(default_factory=list)
    candidate_range: tuple[float, float] = (0.0, 0.0)
    diagnostics: list[CandidateDiagnostic] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "pure": list(self.pure_equilibria),
            "mixed_points": list(self.mixed_points),
            "mixed_intervals": [[a, b] for a, b in self.mixed_intervals],
            "range": list(self.candidate_range),
            "diagnostics": [dict(zip(DIAGNOSTIC_KEYS, d)) for d in self.diagnostics],
            "scope": "recurrent-class",
        }


def _scan(params: EconomicParams, policy: ServiceRatePolicy) -> range:
    """Every n0 the delay bounds leave open: W(n0-1, n0) <= n0/mu_1 and
    1/mu_{n0+1} <= 1/mu_1 give n0 >= r_tilde mu_1 - 1, and W(n0-1, n0) >= n0/M
    gives n0 <= r_tilde M."""
    r = params.r_tilde
    return range(max(math.ceil(r * policy.rate_at(1) - 1.0 - TOL_EQ), 0),
                 math.floor(r * policy.max_rate + TOL_EQ) + 1)


def pure_candidate_range(params: EconomicParams, policy: ServiceRatePolicy) -> tuple[float, float]:
    """The reported range of pure threshold equilibria.

    General policies: the integers [max(ceil(r_tilde mu_1 - 1), 0),
    floor(r_tilde M)] that enumerate_pure_equilibria scans. Two-rate threshold policies: the paper's real-valued
    bounds (L, U) for equilibria above the service threshold,
    L = max{(r_tilde - 1/mu_h) mu_l, T+1}, U = max{r_tilde mu_h, T+1}.
    An empty range is returned as (low, high) with low > high.
    """
    r = params.r_tilde
    if policy.threshold_form is not None:
        T, mu_l, mu_h = policy.threshold_form
        L = max((r - 1.0 / mu_h) * mu_l, T + 1.0)
        U = max(r * mu_h, T + 1.0)
        return (L, U)
    scan = _scan(params, policy)
    return (float(scan.start), float(scan.stop - 1))


def _diagnose(n0: int, w: float, params: EconomicParams,
              policy: ServiceRatePolicy) -> CandidateDiagnostic:
    """The two-sided test of pure threshold n0 given w = W(n0-1, n0); both
    bounds are inclusive within TOL_EQ.

    n0 = 0 (always balk) is an equilibrium iff r_tilde <= 1/mu_1, which is
    the same two-sided condition with the convention W(-1, 0) = 0.
    """
    r = params.r_tilde
    lower = r - 1.0 / policy.rate_at(n0 + 1)
    return CandidateDiagnostic(n0, w, lower, r, lower - TOL_EQ <= w <= r + TOL_EQ)


def threshold_policy_below_T(params: EconomicParams, policy: ServiceRatePolicy) -> list[int]:
    """Closed-form pure equilibria in {0..T} for a two-rate policy.

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


def enumerate_pure_equilibria(params: EconomicParams,
                              policy: ServiceRatePolicy) -> EquilibriumReport:
    """Test every candidate threshold and return the sorted equilibrium set.

    The candidates are the integers from max(ceil(r_tilde mu_1 - 1), 0) to
    floor(r_tilde M), scored in one batched solve and judged by the
    two-sided test alone, whatever the policy.
    """
    scan = _scan(params, policy)
    diagnostics = [_diagnose(n0, w, params, policy)
                   for n0, w in zip(scan, marginal_delays(policy, scan, params).tolist())]
    return EquilibriumReport([d.n0 for d in diagnostics if d.is_equilibrium],
                             candidate_range=pure_candidate_range(params, policy),
                             diagnostics=diagnostics)


def marginal_delay(x: float, params: EconomicParams, policy: ServiceRatePolicy) -> float:
    """Marginal delay w(x) = W(floor(x), floor(x)+1) under the threshold-x
    strategy; at integer x this is the pure-threshold value W(x-1, x)
    (w is left-continuous)."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    return float(marginal_delays(policy, [x], params)[0])


def find_mixed_equilibria(params: EconomicParams, policy: ServiceRatePolicy,
                          x_min: float, x_max: float) -> tuple[list[float], list[tuple[float, float]]]:
    """Locate mixed threshold equilibria w(x) = r_tilde on (x_min, x_max).

    w is nonincreasing on each unit interval, so the interval's two ends,
    solved for all intervals in one batch, decide it: both within TOL_ROOT
    of r_tilde make a continuum interval (the two-rate case r_tilde * mu_low
    an integer at most T), reported whole instead of points; a sign change
    brackets one root; an end exactly at r_tilde is a root. All brackets are
    refined together, REFINE_POINTS interior points each in one batched
    solve per step, until each is at most TOL_ROOT_X wide with an end within
    TOL_ROOT of r_tilde; that end is reported. Roots within 1e-9 of an
    integer are pure thresholds and are dropped.
    """
    if not (0.0 < x_min < x_max):
        raise ValueError("need 0 < x_min < x_max")
    r = params.r_tilde
    ks = np.arange(max(math.floor(x_min), 0), math.ceil(x_max))
    lo, hi = np.maximum(ks, x_min), np.minimum(ks + 1.0, x_max)
    lo, hi = lo[hi > lo], hi[hi > lo]
    x0 = lo + _EDGE_PROBE
    f0, f1 = np.split(marginal_delays(policy, np.concatenate((x0, hi)), params) - r, 2)
    flat = (np.abs(f0) <= TOL_ROOT) & (np.abs(f1) <= TOL_ROOT)
    bracket = ~flat & (f0 != 0.0) & (f1 != 0.0) & ((f0 < 0.0) != (f1 < 0.0))
    a, b, fa, fb = x0[bracket], hi[bracket], f0[bracket], f1[bracket]
    inner = np.arange(1, REFINE_POINTS + 1) / (REFINE_POINTS + 1)
    live = np.ones(len(a), bool)
    while True:
        live &= (b - a > TOL_ROOT_X) | (np.minimum(np.abs(fa), np.abs(fb)) > TOL_ROOT)
        if not live.any():
            break
        xs = np.column_stack((a[live], a[live, None] + (b - a)[live, None] * inner, b[live]))
        fs = np.column_stack((fa[live], marginal_delays(policy, xs[:, 1:-1].ravel(), params)
                              .reshape(-1, REFINE_POINTS) - r, fb[live]))
        # the first point whose sign differs from the left end's (b at the latest)
        i = 1 + ((fs[:, 1:] < 0.0) != (fs[:, :1] < 0.0)).argmax(axis=1)
        rows = np.arange(len(i))
        new = xs[rows, i - 1], xs[rows, i], fs[rows, i - 1], fs[rows, i]
        moved = (new[0] != a[live]) | (new[1] != b[live])  # adjacent floats stay put
        a[live], b[live], fa[live], fb[live] = new
        live[live] = moved
    # one candidate per interval: its bracket's end nearer r_tilde, or an end exactly at it
    roots = np.where(f0 == 0.0, x0, hi)
    roots[bracket] = np.where(np.abs(fa) <= np.abs(fb), a, b)
    residual = np.zeros(len(roots))
    residual[bracket] = np.minimum(np.abs(fa), np.abs(fb))
    keep = (bracket | ~flat & ((f0 == 0.0) | (f1 == 0.0))) & (residual <= TOL_ROOT)
    roots = roots[keep & (np.abs(roots - np.round(roots)) > 1e-9)]  # not a pure threshold
    points: list[float] = []
    for root in roots.tolist():
        if not points or root - points[-1] > 1e-8:
            points.append(root)
    return points, list(zip(lo[flat].tolist(), hi[flat].tolist()))


def sweep_pure(params: EconomicParams, policy: ServiceRatePolicy,
               n0_lo: int, n0_hi: int) -> list[tuple[int, float, bool]]:
    """(n0, W(n0-1, n0), |W - r_tilde| <= TOL_EQ) for each integer threshold."""
    n0s = range(max(n0_lo, 1), n0_hi + 1)
    return [(n0, w, abs(w - params.r_tilde) <= TOL_EQ)
            for n0, w in zip(n0s, marginal_delays(policy, n0s, params).tolist())]


def sweep_mixed(params: EconomicParams, policy: ServiceRatePolicy,
                x_lo: float, x_hi: float, step: float) -> list[tuple[float, float, bool]]:
    """(x, w(x), |w - r_tilde| <= TOL_EQ) on the grid x = x_lo + i*step,
    i = 0, 1, ..., while x <= x_hi + 1e-12, keeping x > 0.

    A grid whose points times its largest balk state ceil(x_hi) + 1 exceed
    MAX_TABLE_CELLS raises ValueError before the grid is built.
    """
    if not (step > 0.0 and math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise ValueError("sweep needs a finite range and a positive step")
    top = x_hi + 1e-12
    # one past the last grid point, with room for x_lo + i*step to round back
    # down to top when step is finer than the float spacing there; inf when
    # the grid is absurdly fine
    points = (top - x_lo + 4.0 * math.ulp(top)) / step + 2.0
    cells = points * (max(math.ceil(x_hi), 0) + 1)
    if cells > MAX_TABLE_CELLS:
        raise ValueError(f"sweep grid of about {points:.3g} points up to x = {x_hi:g} has "
                         f"{cells:.3g} cells, over the limit of {MAX_TABLE_CELLS}")
    xs = x_lo + step * np.arange(max(math.floor(points), 0))
    xs = xs[(xs <= top) & (xs > 0.0)]
    return [(x, w, abs(w - params.r_tilde) <= TOL_EQ)
            for x, w in zip(xs.tolist(), marginal_delays(policy, xs, params).tolist())]
