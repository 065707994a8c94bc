"""Pure and mixed threshold equilibrium search.

A pure threshold n0 is an equilibrium in the recurrent class iff
r_tilde - 1/mu_{n0+1} <= W(n0-1, n0) <= r_tilde. The delay bounds
n0/M <= W(n0-1, n0) <= n0/mu_1 confine such n0 to the integers from
r_tilde mu_1 - 1 to r_tilde M, so one scan of that range, scored in one
batched solve, finds them all; the two-rate closed form below the service
threshold is a corollary the tests cross-check. A mixed threshold x is an
equilibrium iff the marginal delay w(x) equals r_tilde; roots are located by
grid probing plus bisection since per-interval monotonicity of w is observed
but not proved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .delay import MAX_TABLE_CELLS, marginal_delays
from .model import EconomicParams, ServiceRatePolicy

TOL_EQ = 1e-9       # equality / indifference tolerance, time units
TOL_INT = 1e-9      # integrality test for r_tilde * mu_low
TOL_ROOT = 1e-9     # |w(x) - r_tilde| at a reported mixed equilibrium
TOL_ROOT_X = 1e-10  # bisection interval width
GRID_PROBES = 64    # probes per unit interval in the mixed search
MAX_BISECT = 200
_EDGE_PROBE = 1e-9  # offset of the first probe past an integer


class RootSearchError(RuntimeError):
    """Bisection failed to converge on a bracketed interval."""


@dataclass(frozen=True)
class CandidateDiagnostic:
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
            "diagnostics": [
                {
                    "n0": d.n0,
                    "W_marginal": d.w_marginal,
                    "lower_bound": d.lower_bound,
                    "upper_bound": d.upper_bound,
                    "is_equilibrium": d.is_equilibrium,
                }
                for d in self.diagnostics
            ],
            "scope": "recurrent-class",
        }

    def diagnostics_csv(self) -> str:
        lines = ["n0,W_marginal,lower_bound,upper_bound,is_equilibrium"]
        for d in self.diagnostics:
            lines.append(
                f"{d.n0},{d.w_marginal:.17g},{d.lower_bound:.17g},"
                f"{d.upper_bound:.17g},{int(d.is_equilibrium)}"
            )
        return "\n".join(lines) + "\n"


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


def _bisect_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """Bisection on a sign change of f over [a, b]."""
    for _ in range(MAX_BISECT):
        mid = 0.5 * (a + b)
        if b - a <= TOL_ROOT_X:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fa < 0.0) != (fm < 0.0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    raise RootSearchError(f"bisection did not converge on [{a}, {b}]")


def find_mixed_equilibria(params: EconomicParams, policy: ServiceRatePolicy,
                          x_min: float, x_max: float) -> tuple[list[float], list[tuple[float, float]]]:
    """Locate mixed threshold equilibria w(x) = r_tilde on (x_min, x_max).

    Each unit interval is probed on a grid of GRID_PROBES steps and every
    bracketed sign change is refined by bisection. When every probe of an
    interval has |w - r_tilde| <= TOL_ROOT (the two-rate continuum case,
    r_tilde * mu_low an integer at most T), the whole interval is reported
    instead of points.
    """
    if not (0.0 < x_min < x_max):
        raise ValueError("need 0 < x_min < x_max")
    r = params.r_tilde
    points: list[float] = []
    intervals: list[tuple[float, float]] = []
    f = lambda x: marginal_delay(x, params, policy) - r
    for k in range(max(math.floor(x_min), 0), math.ceil(x_max)):
        lo = max(float(k), x_min)
        hi = min(k + 1.0, x_max)
        if hi <= lo:
            continue
        xs = [lo + _EDGE_PROBE] + [lo + (hi - lo) * i / GRID_PROBES
                                   for i in range(1, GRID_PROBES + 1)]
        fs = [w - r for w in marginal_delays(policy, xs, params).tolist()]
        if all(abs(v) <= TOL_ROOT for v in fs):
            intervals.append((lo, hi))
            continue
        for i in range(len(xs) - 1):
            fa, fb = fs[i], fs[i + 1]
            if fa == 0.0:
                root = xs[i]
            elif fb == 0.0 or (fa < 0.0) == (fb < 0.0):
                continue
            else:
                root = _bisect_root(f, xs[i], xs[i + 1], fa, fb)
            if abs(root - round(root)) <= 1e-9:
                continue  # coincides with a pure threshold
            if abs(f(root)) <= TOL_ROOT and not any(abs(root - p) <= 1e-8 for p in points):
                points.append(root)
        # the right endpoint can be an interior root when f(hi) == 0 exactly
        if fs[-1] == 0.0 and abs(hi - round(hi)) > 1e-9 and \
                not any(abs(hi - p) <= 1e-8 for p in points):
            points.append(hi)
    return sorted(points), intervals


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
