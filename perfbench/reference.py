"""Reference answers and the checker, independent of threshq's own code.

Delays come from the first-step system assembled as one sparse matrix and
handed to a generic triangular solver; threshq's backward recursion is not
used, and this module does not import threshq. Each query's captured output
is compared with these references after the timed passes:

- Table 1 against the published rows;
- delay tables, arrival delays and sweep values against the reference solve;
- each pure equilibrium set against a direct two-sided best-response scan
  over every threshold 0..floor(r_tilde M);
- each mixed root by its residual |w(x) - r_tilde| <= 1e-9;
- ``simulate`` by its mean, within SIM_Z standard errors of the exact delay;
- ``verify-coupling`` by exit code 0 and zero violations.

A failure of the one kind threshq is known to have (``KnownMiss``) is told
apart from every other, so a run can still fail on any new wrong answer.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

TOL = 1e-9       # equality tolerance of the equilibrium conditions, time units
REL = 1e-9       # relative agreement of a reported delay with the reference
BAND = 1e-11     # a margin this close to a tolerance edge may go either way
SIM_Z = 3.0      # standard errors a simulate mean may lie from the exact delay
Z95 = 1.959963984540054

PUBLISHED_TABLE1 = {
    "8":    ("15;16", "",                     24.0, 40.0),
    "8.15": ("16",    "26;27;28;29;30;31;32", 24.0, 40.75),
    "8.5":  ("16;17", "25;36;37",             24.0, 42.5),
    "9.5":  ("18;19", "45",                   24.0, 47.5),
    "13":   ("",      "64",                   25.6, 65.0),
}


class KnownMiss(str):
    """Why an answer is wrong, when it is wrong only by threshq's known
    general-policy range defect (ROADMAP item 1): the reported pure set
    lacks equilibria n0 >= 1 below the lower bound ceil((r_tilde - 1/M) mu_1)
    that threshq tests from, and is otherwise right."""


class Instance:
    """An instance document read without threshq."""

    def __init__(self, doc: dict):
        self.lam = float(doc["lambda"])
        self.wait_cost = float(doc["wait_cost"])
        self.r_tilde = float(doc["reward"]) / self.wait_cost
        policy = doc["policy"]
        self.general = "T" not in policy
        if not self.general:
            self.prefix = [float(policy["mu_low"])] * int(policy["T"])
            self.tail = float(policy["mu_high"])
        else:
            self.prefix = [float(r) for r in policy["prefix"]]
            self.tail = float(policy["tail"])
        self._marginal: dict[float, float] = {}

    def rate(self, n: int) -> float:
        return self.prefix[n - 1] if n <= len(self.prefix) else self.tail

    def table(self, x: float) -> np.ndarray:
        """W[n, m] for 0 <= n < m <= n0 under the threshold-x strategy."""
        n0, probs = threshold_probs(x)
        mu = np.array([0.0] + [self.rate(m) for m in range(1, n0 + 1)])
        return solve_first_step(self.lam, mu, probs, n0)

    def marginal(self, x: float) -> float:
        """w(x) = W(floor(x), floor(x)+1) for non-integer x, W(x-1, x) at an integer."""
        if x not in self._marginal:
            k = math.floor(x)
            self._marginal[x] = float(self.table(x)[k - 1, k] if x == k else
                                      self.table(x)[k, k + 1])
        return self._marginal[x]

    def arrival_delays(self, x: float) -> np.ndarray:
        """W(n) for n = 0..n0: W(n, n+1) below n0, 1/mu_{n0+1} + W(n0-1, n0) at n0."""
        n0, _ = threshold_probs(x)
        if n0 == 0:
            return np.array([1.0 / self.rate(1)])
        table = self.table(x)
        out = [table[n, n + 1] for n in range(n0)]
        return np.array(out + [1.0 / self.rate(n0 + 1) + table[n0 - 1, n0]])

    def pure_scan(self) -> tuple[set[int], set[int]]:
        """(equilibria, undecidable) from the two-sided best-response test.

        n0 is an equilibrium when the last joiner gains by joining,
        W(n0-1, n0) <= r_tilde, and an arrival at n0 gains nothing,
        W(n0-1, n0) + 1/mu_{n0+1} >= r_tilde, both within TOL. A threshold
        whose margin sits within BAND of a tolerance edge is undecidable.
        """
        r = self.r_tilde
        hits, unsure = set(), set()
        for n0 in range(0, math.floor(r * self.tail + TOL) + 1):
            w = self.marginal(float(n0)) if n0 else 0.0
            low_margin = w - (r - 1.0 / self.rate(n0 + 1) - TOL)
            high_margin = (r + TOL) - w
            if low_margin >= 0.0 and high_margin >= 0.0:
                hits.add(n0)
            if min(abs(low_margin), abs(high_margin)) <= BAND:
                unsure.add(n0)
        return hits, unsure

    def range_low(self) -> int:
        """threshq's lower candidate bound for a general policy."""
        mu1 = self.rate(1)
        return max(math.ceil((self.r_tilde - 1.0 / self.tail) * mu1 - TOL), 0)


def threshold_probs(x: float) -> tuple[int, np.ndarray]:
    """(balk state n0, join probabilities p_0..p_n0) of the threshold-x strategy."""
    k = math.floor(x)
    if x == k:
        return k, np.array([1.0] * k + [0.0])
    return k + 1, np.array([1.0] * k + [x - k, 0.0])


_STRUCTURE: dict[int, tuple] = {}


def _structure(n0: int):
    """Unknown order (n ascending, m descending) makes the system lower triangular."""
    if n0 not in _STRUCTURE:
        n_idx = np.concatenate([np.full(n0 - n, n) for n in range(n0)])
        m_idx = np.concatenate([np.arange(n0, n, -1) for n in range(n0)])
        pos = np.full((n0, n0 + 1), -1, dtype=np.int64)
        pos[n_idx, m_idx] = np.arange(n_idx.size)
        rows = np.arange(n_idx.size)
        up = m_idx < n0          # W(n, m+1) term
        down = n_idx >= 1        # W(n-1, m-1) term
        _STRUCTURE[n0] = (n_idx, m_idx, rows, up, down,
                          pos[n_idx[up], m_idx[up] + 1], pos[n_idx[down] - 1, m_idx[down] - 1])
    return _STRUCTURE[n0]


def solve_first_step(lam: float, mu: np.ndarray, probs: np.ndarray, n0: int) -> np.ndarray:
    """Solve (lam p_m + mu_m) W(n,m) - lam p_m W(n,m+1) - mu_m W(n-1,m-1) = 1
    for all 0 <= n < m <= n0 as one sparse system; mu[m] is the rate with m present."""
    W = np.full((max(n0, 1), n0 + 1), np.nan)
    if n0 == 0:
        return W
    n_idx, m_idx, rows, up, down, up_cols, down_cols = _structure(n0)
    lp = lam * probs[m_idx]
    mum = mu[m_idx]
    A = sp.csr_matrix((np.concatenate([lp + mum, -lp[up], -mum[down]]),
                       (np.concatenate([rows, rows[up], rows[down]]),
                        np.concatenate([rows, up_cols, down_cols]))),
                      shape=(rows.size, rows.size))
    W[n_idx, m_idx] = spsolve_triangular(A, np.ones(rows.size), lower=True)
    return W


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * max(1.0, abs(want))


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.strip().split("\n")
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def _data_lines(text: str) -> list[str]:
    return text.strip().split("\n")[1:]


def _sweep_grid(lo: float, hi: float, step: float) -> list[float]:
    """The documented sweep grid: lo + i*step for x <= hi, positive x only."""
    xs, i = [], 0
    while lo + i * step <= hi + 1e-12:
        if lo + i * step > 0.0:
            xs.append(lo + i * step)
        i += 1
    return xs


def _hit_ok(hit: str, w: float, r: float) -> bool:
    margin = TOL - abs(w - r)
    return abs(margin) <= BAND or hit == str(int(margin >= 0.0))


def check_table1(query, inst, stdout, files) -> str | None:
    """The published rows exactly; for drawn rewards, each row's pure set
    split at T against the best-response scan and (L, U) against the
    paper's range, L = max((r - 1/mu_h) mu_l, T+1), U = max(r mu_h, T+1)."""
    got = {row[0]: (row[1], row[2], float(row[3]), float(row[4]))
           for row in _csv_rows(stdout, "R,below_T,above_T,L,U")}
    if query["published"]:
        return None if got == PUBLISHED_TABLE1 else f"table differs: {got}"
    T, mu_l, mu_h = len(inst.prefix), inst.prefix[0], inst.tail
    for reward in query["argv"][query["argv"].index("--table1") + 1].split(","):
        row = got.get(f"{float(reward):g}")
        if row is None:
            return f"no row for R={reward}"
        doc = {"lambda": inst.lam, "reward": float(reward), "wait_cost": inst.wait_cost,
               "policy": {"T": T, "mu_low": mu_l, "mu_high": mu_h}}
        hits, unsure = Instance(doc).pure_scan()
        r = float(reward) / inst.wait_cost
        want = (max((r - 1.0 / mu_h) * mu_l, T + 1.0), max(r * mu_h, T + 1.0))
        below, above = _ints(row[0]), _ints(row[1])
        if (set(below + above) ^ hits) - unsure or any(k > T for k in below) or \
                any(k <= T for k in above):
            return f"R={reward}: pure {row[0]}|{row[1]}, best response gives {sorted(hits)}"
        if any(abs(g - w) > 1e-5 * w for g, w in zip(row[2:], want)):
            return f"R={reward}: range {row[2:]}, expected {want}"
    return None


def _ints(cell: str) -> list[int]:
    return [int(k) for k in cell.split(";") if k]


def check_equilibria(query, inst, stdout, files) -> str | None:
    report = json.loads(stdout)
    hits, unsure = inst.pure_scan()
    pure = set(report["pure"])
    wrong = (pure ^ hits) - unsure
    if wrong:
        why = f"pure set {sorted(pure)}, best response gives {sorted(hits)}"
        known = inst.general and all(0 < n0 < inst.range_low() and n0 in hits for n0 in wrong)
        if not known:
            return why
        miss = KnownMiss(why)
    else:
        miss = None
    r = inst.r_tilde
    for x in report["mixed_points"]:
        residual = abs(inst.marginal(float(x)) - r)
        if x == math.floor(x) or residual > TOL + BAND:
            return f"mixed root {x!r} has residual {residual:.3g}"
    for a, b in report["mixed_intervals"]:
        residual = abs(inst.marginal(0.5 * (a + b)) - r)
        if residual > TOL + BAND:
            return f"mixed interval ({a}, {b}) has midpoint residual {residual:.3g}"
    return miss


def check_sweep(query, inst, stdout, files) -> str | None:
    pure = query["kind"] == "sweep_pure"
    rows = _csv_rows(stdout, "n0,W,equilibrium_hit" if pure else "x,W,equilibrium_hit")
    if pure:
        xs = [float(n0) for n0 in range(max(query["lo"], 1), query["hi"] + 1)]
    else:
        xs = _sweep_grid(query["lo"], query["hi"], query["step"])
    if len(rows) != len(xs):
        return f"{len(rows)} rows, expected {len(xs)}"
    for x, (xr, w, hit) in zip(xs, rows):
        w = float(w)
        if not _close(float(xr), x):
            return f"row x={xr}, expected {x!r}"
        if not _close(w, inst.marginal(x)) or not _hit_ok(hit, w, inst.r_tilde):
            return f"row x={xr}: W={w!r} hit={hit}, reference {inst.marginal(x)!r}"
    return None


def check_delay(query, inst, stdout, files) -> str | None:
    x = query["x"]
    n0, _ = threshold_probs(x)
    table = inst.table(x)
    rows = np.loadtxt(_data_lines(files["delay_table.csv"]), delimiter=",", ndmin=2)
    n, m = np.triu_indices(n0, k=1, m=n0 + 1)  # rows n ascending, then m
    if rows.shape != (n.size, 3) or np.any(rows[:, 0] != n) or np.any(rows[:, 1] != m):
        return f"delay table rows are not (n, m) for 0 <= n < m <= {n0}"
    want = table[n, m]
    if np.any(np.abs(rows[:, 2] - want) > REL * np.maximum(1.0, np.abs(want))):
        return "delay table differs from the reference solve"
    arrivals = np.loadtxt(_data_lines(files["arrival_delay.csv"]), delimiter=",", ndmin=2)
    want = inst.arrival_delays(x)
    if arrivals.shape != (n0 + 1, 2) or np.any(
            np.abs(arrivals[:, 1] - want) > REL * np.maximum(1.0, want)):
        return "arrival delays differ from the reference solve"
    return None


def _fields(stdout: str) -> dict[str, str]:
    return dict(item.split("=", 1) for item in stdout.split())


def check_simulate(query, inst, stdout, files) -> str | None:
    f = _fields(stdout)
    exact = float(inst.arrival_delays(query["x"])[query["n"]])
    mean, se = float(f["mean"]), float(f["half_width_95"]) / Z95
    if int(f["samples"]) != query["reps"] or not _close(float(f["analytic"]), exact):
        return f"samples={f['samples']} analytic={f['analytic']}, reference {exact!r}"
    if not abs(mean - exact) <= SIM_Z * se:
        return f"mean {mean!r} is {abs(mean - exact) / se:.2f} standard errors from {exact!r}"
    return None


def check_coupling(query, inst, stdout, files) -> str | None:
    f = _fields(stdout)
    if int(f["replications"]) != query["reps"]:
        return f"replications={f['replications']}"
    if int(f["violations"]) != 0 or float(f["max_violation"]) != 0.0:
        return f"violations={f['violations']} max_violation={f['max_violation']}"
    return None


CHECKS = {
    "table1": check_table1,
    "equilibria": check_equilibria,
    "sweep_pure": check_sweep,
    "sweep_mixed": check_sweep,
    "delay": check_delay,
    "simulate": check_simulate,
    "coupling": check_coupling,
}


def read_outputs(query: dict) -> dict[str, str]:
    """The files a query wrote with --out, by name."""
    out = query.get("out")
    if out is None or not os.path.isdir(out):
        return {}
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    return files


def check_query(query: dict, inst: Instance, code, stdout: str,
                files: dict[str, str]) -> str | None:
    """None when the answer agrees with the reference, else why it does not."""
    if code != 0:
        return f"exit code {code}"
    try:
        return CHECKS[query["kind"]](query, inst, stdout, files)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
