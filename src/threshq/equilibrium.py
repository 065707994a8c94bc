"""Pure and mixed threshold equilibrium search.

A pure threshold n0 is an equilibrium in the recurrent class iff it lies in
the admissible range and r_tilde - 1/mu_{n0+1} <= W(n0-1, n0) <= r_tilde.
A mixed threshold x is an equilibrium iff the marginal delay w(x) equals
r_tilde; roots are located by grid probing plus bisection since per-interval
monotonicity of w is observed but not proved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .delay import marginal_delays, solve_delay_table
from .model import EconomicParams, JoinStrategy, ServiceRatePolicy, strategy_from_x

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
    in_range: bool
    is_equilibrium: bool


@dataclass
class EquilibriumReport:
    """Classified equilibria plus per-candidate diagnostics.

    ``mixed_intervals`` holds continuum cases where every interior x is an
    equilibrium. Classification scope is always the recurrent class.
    """

    pure_equilibria: list[int]
    mixed_points: list[float] = field(default_factory=list)
    mixed_intervals: list[tuple[float, float]] = field(default_factory=list)
    candidate_range: tuple[float, float] = (0.0, 0.0)
    diagnostics: list[CandidateDiagnostic] = field(default_factory=list)
    classification_scope: str = "recurrent-class"

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
                    "in_range": d.in_range,
                    "is_equilibrium": d.is_equilibrium,
                }
                for d in self.diagnostics
            ],
            "scope": self.classification_scope,
        }

    def diagnostics_csv(self) -> str:
        lines = ["n0,W_marginal,lower_bound,upper_bound,is_equilibrium"]
        for d in self.diagnostics:
            lines.append(
                f"{d.n0},{d.w_marginal:.17g},{d.lower_bound:.17g},"
                f"{d.upper_bound:.17g},{int(d.is_equilibrium)}"
            )
        return "\n".join(lines) + "\n"


def _pure_marginals(n0s, params: EconomicParams, policy: ServiceRatePolicy) -> list[float]:
    """W(n0-1, n0) under each pure threshold strategy n0 (0.0 for n0 = 0)."""
    if any(n0 < 0 for n0 in n0s):
        raise ValueError("threshold must be nonnegative")
    return marginal_delays(policy, [strategy_from_x(n0) for n0 in n0s], params).tolist()


def pure_marginal_delay(n0: int, params: EconomicParams, policy: ServiceRatePolicy) -> float:
    """W(n0-1, n0) under the pure threshold strategy n0 (0.0 for n0 = 0)."""
    return _pure_marginals([n0], params, policy)[0]


def net_benefit(q_n: float, n: int, strategy: JoinStrategy,
                params: EconomicParams, policy: ServiceRatePolicy) -> float:
    """Expected net benefit C * q_n * (r_tilde - W(n)) of joining with
    probability q_n at state n when everyone else follows ``strategy``."""
    from .delay import arrival_delay

    table = solve_delay_table(policy, strategy, params)
    return params.wait_cost * q_n * (params.r_tilde - arrival_delay(table, policy, n))


def best_response(n: int, strategy: JoinStrategy, params: EconomicParams,
                  policy: ServiceRatePolicy, tol: float = TOL_EQ) -> str:
    """Best response at state n: 'join', 'balk', or 'indifferent'."""
    from .delay import arrival_delay

    table = solve_delay_table(policy, strategy, params)
    gap = params.r_tilde - arrival_delay(table, policy, n)
    if gap > tol:
        return "join"
    if gap < -tol:
        return "balk"
    return "indifferent"


def pure_candidate_range(params: EconomicParams, policy: ServiceRatePolicy) -> tuple[float, float]:
    """Admissible range of pure threshold equilibria.

    General policies: integers [ceil((r_tilde - 1/M) mu_1) clamped at 0,
    floor(r_tilde M)]. Two-rate threshold policies: the real-valued bounds
    (L, U) for candidates above the service threshold,
    L = max{(r_tilde - 1/mu_h) mu_l, T+1}, U = max{r_tilde mu_h, T+1}.
    An empty range is returned as (low, high) with low > high.
    """
    r = params.r_tilde
    if policy.threshold_form is not None:
        T, mu_l, mu_h = policy.threshold_form
        L = max((r - 1.0 / mu_h) * mu_l, T + 1.0)
        U = max(r * mu_h, T + 1.0)
        return (L, U)
    mu1 = policy.rate_at(1)
    M = policy.max_rate
    low = max(math.ceil((r - 1.0 / M) * mu1 - TOL_EQ), 0)
    high = math.floor(r * M + TOL_EQ)
    return (float(low), float(high))


def is_pure_equilibrium(n0: int, params: EconomicParams,
                        policy: ServiceRatePolicy,
                        tol_eq: float = TOL_EQ) -> CandidateDiagnostic:
    """Test one pure threshold candidate; boundaries are inclusive within tol.

    n0 = 0 (always balk) is tested directly: it is an equilibrium iff
    r_tilde <= 1/mu_1, which is the same two-sided condition with the
    convention W(-1, 0) = 0.
    """
    return _diagnose(n0, pure_marginal_delay(n0, params, policy), params, policy, tol_eq)


def _diagnose(n0: int, w: float, params: EconomicParams, policy: ServiceRatePolicy,
              tol_eq: float) -> CandidateDiagnostic:
    """The test of ``is_pure_equilibrium`` given the marginal delay w = W(n0-1, n0)."""
    r = params.r_tilde
    lower = r - 1.0 / policy.rate_at(n0 + 1)
    upper = r
    cond = (w >= lower - tol_eq) and (w <= upper + tol_eq)
    if n0 == 0:
        in_range = True
    elif policy.threshold_form is not None:
        T, mu_l, mu_h = policy.threshold_form
        if n0 <= T:
            # below the service threshold the recurrent class only ever uses
            # mu_l, so the admissible range tightens to r mu_l - 1 <= n0 <= r mu_l
            in_range = (r * mu_l - 1.0 - tol_eq <= n0 <= r * mu_l + tol_eq) if n0 < T else \
                       ((r - 1.0 / mu_h) * mu_l - tol_eq <= T <= r * mu_l + tol_eq)
        else:
            L, U = pure_candidate_range(params, policy)
            in_range = L - tol_eq <= n0 <= U + tol_eq
    else:
        low, high = pure_candidate_range(params, policy)
        in_range = low <= n0 <= high
    return CandidateDiagnostic(n0, w, lower, upper, in_range, bool(cond and in_range))


def threshold_policy_below_T(params: EconomicParams, policy: ServiceRatePolicy,
                             tol_int: float = TOL_INT) -> list[int]:
    """Closed-form pure equilibria in {0..T} for a two-rate policy.

    With y = r_tilde * mu_low: y integer and y <= T gives {y-1, y}; y
    non-integer below T gives {floor(y)}; T < y <= T + mu_l/mu_h with
    floor(y) = T gives {T}; otherwise none. The boundary
    y = T + mu_l/mu_h is included (weak inequality).
    """
    if policy.threshold_form is None:
        raise ValueError("requires a two-rate threshold policy")
    T, mu_l, mu_h = policy.threshold_form
    y = params.r_tilde * mu_l
    near = round(y)
    if abs(y - near) <= tol_int:
        if near <= T:
            return sorted({k for k in (near - 1, near) if k >= 0})
        return []
    fl = math.floor(y)
    if fl < T:
        return [fl]
    if fl == T and y <= T + mu_l / mu_h + tol_int:
        return [T]
    return []


def enumerate_pure_equilibria(params: EconomicParams, policy: ServiceRatePolicy,
                              tol_eq: float = TOL_EQ) -> EquilibriumReport:
    """Test every candidate threshold and return the sorted equilibrium set.

    Two-rate policies split the search: the {0..T} portion uses the closed
    forms, candidates above T use the general delay test over [L, U].
    """
    rng = pure_candidate_range(params, policy)
    diagnostics: list[CandidateDiagnostic] = []
    pure: list[int] = []
    if policy.threshold_form is not None:
        T, mu_l, mu_h = policy.threshold_form
        below = set(threshold_policy_below_T(params, policy))
        for n0 in range(0, T + 1):
            w = n0 / mu_l
            lower = params.r_tilde - 1.0 / policy.rate_at(n0 + 1)
            diagnostics.append(CandidateDiagnostic(
                n0, w, lower, params.r_tilde, n0 in below, n0 in below))
        pure.extend(sorted(below))
        L, U = rng
        candidates = list(range(max(math.ceil(L - tol_eq), T + 1), math.floor(U + tol_eq) + 1))
    else:
        low, high = int(rng[0]), int(rng[1])
        candidates = sorted({0} | set(range(max(low, 1), high + 1)))
    for n0, w in zip(candidates, _pure_marginals(candidates, params, policy)):
        diag = _diagnose(n0, w, params, policy, tol_eq)
        diagnostics.append(diag)
        if diag.is_equilibrium:
            pure.append(n0)
    return EquilibriumReport(sorted(set(pure)), candidate_range=rng,
                             diagnostics=diagnostics)


def marginal_delay(x: float, params: EconomicParams, policy: ServiceRatePolicy) -> float:
    """Marginal delay w(x) = W(floor(x), floor(x)+1) under the threshold-x
    strategy; at integer x this is the pure-threshold value W(x-1, x)
    (w is left-continuous)."""
    return _marginals([x], params, policy)[0]


def _marginals(xs, params: EconomicParams, policy: ServiceRatePolicy) -> list[float]:
    """w(x) for each x, in one batched solve."""
    strategies = []
    for x in xs:
        if x <= 0.0:
            raise ValueError("x must be positive")
        strategy = strategy_from_x(x)
        k = math.floor(x)
        if x != k and strategy.balk_state == k:
            # the join probability x - k snapped to 0, so W(k, k+1) does not exist
            raise ValueError(f"W({k},{k + 1}) is outside the table (n0={k})")
        strategies.append(strategy)
    return marginal_delays(policy, strategies, params).tolist()


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
                          x_min: float, x_max: float,
                          probes: int = GRID_PROBES) -> tuple[list[float], list[tuple[float, float]]]:
    """Locate mixed threshold equilibria w(x) = r_tilde on (x_min, x_max).

    Each unit interval is probed on a grid and every bracketed sign change
    is refined by bisection. When w is identically r_tilde on an interval
    (the two-rate continuum case, r_tilde * mu_low integer and at most T)
    the whole open interval is reported instead of sampled points.
    """
    if not (0.0 < x_min < x_max):
        raise ValueError("need 0 < x_min < x_max")
    r = params.r_tilde
    points: list[float] = []
    intervals: list[tuple[float, float]] = []
    cont_hi = None
    if policy.threshold_form is not None:
        T, mu_l, _ = policy.threshold_form
        y = r * mu_l
        if abs(y - round(y)) <= TOL_INT and 1 <= round(y) <= T:
            cont_hi = int(round(y))
    f = lambda x: marginal_delay(x, params, policy) - r
    for k in range(max(math.floor(x_min), 0), math.ceil(x_max)):
        lo = max(float(k), x_min)
        hi = min(k + 1.0, x_max)
        if hi <= lo:
            continue
        if cont_hi is not None and k + 1 == cont_hi and lo == k and hi == k + 1:
            intervals.append((float(k), k + 1.0))
            continue
        xs = [lo + _EDGE_PROBE] + [lo + (hi - lo) * i / probes for i in range(1, probes + 1)]
        fs = [w - r for w in _marginals(xs, params, policy)]
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
               n0_lo: int, n0_hi: int, tol_eq: float = TOL_EQ) -> list[tuple[int, float, bool]]:
    """(n0, W(n0-1, n0), |W - r_tilde| <= tol) for each integer threshold."""
    n0s = range(max(n0_lo, 1), n0_hi + 1)
    return [(n0, w, abs(w - params.r_tilde) <= tol_eq)
            for n0, w in zip(n0s, _pure_marginals(n0s, params, policy))]


def sweep_mixed(params: EconomicParams, policy: ServiceRatePolicy,
                x_lo: float, x_hi: float, step: float,
                tol_eq: float = TOL_EQ) -> list[tuple[float, float, bool]]:
    """(x, w(x), equilibrium hit) on the grid x_lo + i*step up to x_hi."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    xs = []
    i = 0
    while True:
        x = x_lo + i * step
        if x > x_hi + 1e-12:
            break
        if x > 0.0:
            xs.append(x)
        i += 1
    return [(x, w, abs(w - params.r_tilde) <= tol_eq)
            for x, w in zip(xs, _marginals(xs, params, policy))]
