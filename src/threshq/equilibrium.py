"""Pure and mixed threshold equilibria from one solve of w at the integers.

The marginal delay w(x) = W(n0-1, n0), n0 = ceil(x), is a sawtooth. On a
unit interval (k, k+1] only the join probability x - k at state k moves;
those joiners queue behind the marginal customer and, with nondecreasing
rates, can only speed its service, so w is nonincreasing there. As x falls
to k the marginal customer becomes the joiner at the balk state of pure
threshold k, so w(k+) = w(k) + 1/mu_{k+1}. Pure threshold n0 is an
equilibrium iff w(n0) <= r_tilde <= w(n0+), and the delay bounds
n0/M <= w(n0) <= n0/mu_1 confine it to ``pure_candidates``. The interval
(k, k+1] holds a mixed root iff w(k+1) < r_tilde < w(k+), and is all
equilibria iff both equal r_tilde; the same bounds put both k and k+1 among
the candidates. test_w_nonincreasing_on_unit_intervals in
tests/test_equilibrium.py checks the monotonicity and w(k+) on random instances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .delay import check_cells, check_table_size, marginal_delays
from .model import EconomicParams, ServiceRatePolicy

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

    def to_json_dict(self) -> dict:
        return {
            "pure": list(self.pure_equilibria),
            "mixed_points": list(self.mixed_points),
            "mixed_intervals": [[a, b] for a, b in self.mixed_intervals],
            "range": list(self.candidate_range),
            "diagnostics": [d._asdict() for d in self.diagnostics],
            "scope": "recurrent-class",
        }


def pure_candidates(params: EconomicParams, policy: ServiceRatePolicy) -> range:
    """Every pure threshold n0 the delay bounds leave open: W(n0-1, n0) <= n0/mu_1 and
    1/mu_{n0+1} <= 1/mu_1 give n0 >= r_tilde mu_1 - 1, and W(n0-1, n0) >= n0/M gives
    n0 <= r_tilde M. ValueError unless r_tilde * M is finite and the last candidate's
    full delay table passes delay.check_table_size, before anything is built."""
    r = params.r_tilde
    if not math.isfinite(r * policy.max_rate):
        raise ValueError("r_tilde * M must be finite")
    top = math.floor(r * policy.max_rate + TOL_EQ)
    check_table_size(top, "r_tilde * M")
    return range(max(math.ceil(r * policy.rates(1)[0] - 1.0 - TOL_EQ), 0), top + 1)


def find_equilibria(params: EconomicParams, policy: ServiceRatePolicy,
                    mixed_range: tuple[float, float] | None = None) -> EquilibriumReport:
    """Every pure threshold equilibrium, and with ``mixed_range`` = (x_min, x_max)
    every mixed one on (x_min, x_max].

    One batched solve gives w at pure_candidates. Candidate n0 is an
    equilibrium iff r_tilde - 1/mu_{n0+1} <= w(n0) <= r_tilde within TOL_EQ,
    with W(-1, 0) = 0 for n0 = 0 (always balk). Only a unit interval (k, k+1]
    with k and k+1 both candidates can hold a mixed equilibrium, so the range
    ends enter the solve clipped into the scan. An interval's ends are w(k+)
    and w(k+1), or a range end where it cuts the interval: both within TOL_EQ
    of r_tilde make a continuum interval, reported whole; a sign change
    brackets one root; a right end exactly at r_tilde is a root. The brackets
    are refined together, REFINE_POINTS interior points each per batched
    solve, until each is at most TOL_ROOT_X wide with an end within TOL_EQ of
    r_tilde, and that end is reported. Roots within 1e-9 of an integer are
    pure thresholds and are dropped.
    """
    r = params.r_tilde
    scan = pure_candidates(params, policy)
    pts = n0s = np.arange(scan.start, scan.stop, dtype=float)
    if mixed_range is not None:
        if not (0.0 < mixed_range[0] < mixed_range[1]):
            raise ValueError("need 0 < x_min < x_max")
        x_min, x_max = np.clip(mixed_range, scan.start, scan.stop - 1.0).tolist()  # into the scan
        pts = np.union1d(n0s, [x_min, x_max])
    w = marginal_delays(policy, pts, params)
    mu = policy.rates(scan.stop)  # mu[k] = mu_{k+1}
    w_scan = w[np.searchsorted(pts, n0s)]
    lower = r - 1.0 / mu[scan.start:]
    verdicts = (lower - TOL_EQ <= w_scan) & (w_scan <= r + TOL_EQ)
    diagnostics = [CandidateDiagnostic(n0, wk, lo, r, ok) for n0, wk, lo, ok in zip(
        scan, w_scan.tolist(), lower.tolist(), verdicts.tolist())]
    report = EquilibriumReport([d.n0 for d in diagnostics if d.is_equilibrium],
                               candidate_range=(float(scan.start), float(scan.stop - 1)),
                               diagnostics=diagnostics)
    if mixed_range is None:
        return report
    ks = np.arange(math.floor(x_min), math.ceil(x_max))  # (k, k+1] in the scan and the range
    lo, hi = np.maximum(ks, x_min), np.minimum(ks + 1.0, x_max)
    f0 = w[np.searchsorted(pts, lo)] + np.where(lo == ks, 1.0 / mu[ks], 0.0) - r
    f1 = w[np.searchsorted(pts, hi)] - r
    flat = (np.abs(f0) <= TOL_EQ) & (np.abs(f1) <= TOL_EQ)
    bracket = ~flat & (f0 != 0.0) & (f1 != 0.0) & ((f0 < 0.0) != (f1 < 0.0))
    a, b, fa, fb = lo[bracket], hi[bracket], f0[bracket], f1[bracket]
    inner = np.arange(1, REFINE_POINTS + 1) / (REFINE_POINTS + 1)
    live = np.ones(len(a), bool)
    while True:
        live &= (b - a > TOL_ROOT_X) | (np.minimum(np.abs(fa), np.abs(fb)) > TOL_EQ)
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
    # per bracket its end nearer r_tilde, and every right end exactly at it
    near = np.minimum(np.abs(fa), np.abs(fb)) <= TOL_EQ
    roots = np.sort(np.concatenate((np.where(np.abs(fa) <= np.abs(fb), a, b)[near],
                                    hi[~flat & (f1 == 0.0)])))
    for root in roots[np.abs(roots - np.round(roots)) > 1e-9].tolist():  # not a pure threshold
        if not report.mixed_points or root - report.mixed_points[-1] > 1e-8:
            report.mixed_points.append(root)
    report.mixed_intervals = list(zip(lo[flat].tolist(), hi[flat].tolist()))
    return report


def sweep_mixed(params: EconomicParams, policy: ServiceRatePolicy,
                x_lo: float, x_hi: float, step: float) -> list[tuple[float, float, bool]]:
    """(x, w(x), |w - r_tilde| <= TOL_EQ) on the grid x = x_lo + i*step,
    i = 0, 1, ..., while x <= x_hi + 1e-12, keeping x > 0. With integer ends
    and step 1 the grid is exact, so this is also the sweep of pure thresholds
    n0 = x_lo..x_hi, each row's w the marginal delay W(n0-1, n0).

    Its points times its largest balk state ceil(x_hi) + 1 must pass
    delay.check_cells, or ValueError is raised before the grid is built.
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
    return [(x, w, abs(w - params.r_tilde) <= TOL_EQ)
            for x, w in zip(xs.tolist(), marginal_delays(policy, xs, params).tolist())]
