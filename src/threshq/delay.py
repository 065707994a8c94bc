"""Exact expected delays under a fixed symmetric joining strategy.

The generalized delay W(n, m) is the expected remaining sojourn of a tagged
customer with n customers ahead out of m total, when all future arrivals
follow the given strategy. The defining first-step system is triangular:
W(n, m) reads only W(n, m+1) and W(n-1, m-1), and both lie on the
anti-diagonal wavefront c + 1, where c = m - 2n. So the system is solved one
wavefront at a time, c = n0 down to 2 - n0, each wavefront one numpy
expression over strided slices; no general linear solver is needed.

The same kernel solves a batch of threshold strategies at once: their join
probabilities clip(x - m, 0, 1) run to the largest balk state ceil(x) and
are zero from each row's own balk state on, so entries past it are finite
and multiplied by p = 0, and never reach a valid entry. Callers that need
only the marginal delay W(n0-1, n0) keep two wavefronts instead of the table.

A table's CSV streams to its file row by row (DelayTable.to_csv), so writing
it holds one row's text, not the table's.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (EconomicParams, JoinStrategy, ServiceRatePolicy, check_table_size,
                    threshold_probs)

# strategies x padded balk state per batched sweep; larger batches are split,
# so the memory of a batched solve stays a few MB whatever its size
_CHUNK_CELLS = 1 << 15


@dataclass(frozen=True)
class DelayTable:
    """Solved delays W(n, m) for 0 <= n < m <= n0 under one (policy, strategy) pair."""

    n0: int
    entries: np.ndarray  # shape (max(n0,1), n0+1); entries[n, m] = W(n, m), NaN elsewhere

    def __post_init__(self):
        self.entries.setflags(write=False)

    def w(self, n: int, m: int) -> float:
        """W(n, m); defined for 0 <= n < m <= n0."""
        if not (0 <= n < m <= self.n0):
            raise ValueError(f"W({n},{m}) is outside the table (n0={self.n0})")
        return float(self.entries[n, m])

    def to_csv(self, file) -> None:
        """Write the table as CSV to the text stream ``file``: header n,m,W, then
        one line per entry, W to 17 significant digits.

        Each row n goes out as one string, a single ``%`` format over the
        row's m and W, so the writer holds one row's text at a time: memory
        follows the table and not its text, which is about 141 MB at the
        largest table check_table_size allows.
        """
        file.write("n,m,W\n")
        ms = [str(m) for m in range(self.n0 + 1)]
        for n in range(self.n0):
            row = self.entries[n, n + 1:].tolist()  # W(n, n + 1..n0) as Python floats
            cells = [None] * (2 * len(row))  # m, W(n, m), m + 1, ...
            cells[::2], cells[1::2] = ms[n + 1:], row
            file.write(f"{n},%s,%.17g\n" * len(row) % tuple(cells))


def _sweep(lam: float, mu: np.ndarray, probs: np.ndarray,
           table: np.ndarray | None = None) -> np.ndarray:
    """Wavefronts c = N .. 2 - N for B strategies padded to balk state N.

    ``probs[m, b]`` is strategy b's join probability at state m (zero from
    its balk state on) and ``mu[m]`` the rate with m present. Each entry is
    1/den + (lp/den) W(n, m+1) + (mu/den) W(n-1, m-1), lp = lam p_m,
    den = lp + mu_m, in that order. Arrays are flat and n-major, B entries
    per n, so a wavefront is one contiguous slice: the buffers hold
    n = -1..N, zero where an entry falls outside the triangle, and the
    coefficients are split by the parity of m. Returns W(n0-1, n0) per
    strategy; with ``table`` (B = 1) entry (n, m = c + 2n) is also written
    at flat index c + n (N + 3).
    """
    N, B = probs.shape[0] - 1, probs.shape[1]
    n0s = np.count_nonzero(probs, axis=0)
    lp = lam * probs
    den = lp + mu[:, None]
    # per coefficient the rows m = 0, 2, ... then m = 1, 3, ..., flattened
    inv, right, diag = (np.concatenate((x[0::2], x[1::2])).ravel()
                        for x in (1.0 / den, lp / den, mu[:, None] / den))
    # per wavefront c: entries n = lo..hi at buffer index [u, v) + B, reading
    # n - 1 at [u, v); coefficients from k, as m = c + 2 lo is row c // 2 + lo
    # of parity c & 1; table entries at c + lo (N + 3) .. c + hi (N + 3)
    c = np.arange(N, 1 - N, -1)
    lo, hi = np.maximum(1 - c, 0), (N - c) // 2
    u, v = lo * B, (hi + 1) * B
    k = (c // 2 + lo) * B + (c & 1) * ((N + 2) // 2 * B)
    bounds = u, v, u + B, v + B, k, k + v - u, v - u, c + lo * (N + 3), c + hi * (N + 3) + 1
    bufs = np.zeros((2, (N + 2) * B))
    prev, cur = bufs
    tmp = np.empty((N // 2 + 1) * B)
    flat = None if table is None else table.reshape(-1)
    for u, v, u1, v1, k0, k1, n, s, e in zip(*(x.tolist() for x in bounds)):
        dst, t = cur[u1:v1], tmp[:n]
        np.multiply(right[k0:k1], prev[u1:v1], dst)
        np.add(dst, inv[k0:k1], dst)
        np.multiply(diag[k0:k1], prev[u:v], t)
        np.add(dst, t, dst)
        if flat is not None:
            flat[s:e:N + 3] = dst
        prev, cur = cur, prev
    # wavefront j = N - c, counted from 0, wrote bufs[(j + 1) % 2]; strategy b's
    # last is j = N + n0 - 2
    return bufs[(N + n0s - 1) % 2, n0s * B + np.arange(B)]


def _rates(policy: ServiceRatePolicy, n0: int) -> np.ndarray:
    """Index m holds mu_m for 1 <= m <= n0; index 0, which no entry reads, holds mu_1."""
    mu = policy.rates(max(n0, 1))
    return np.concatenate((mu[:1], mu[:n0]))


def solve_delay_table(policy: ServiceRatePolicy, strategy: JoinStrategy,
                      params: EconomicParams) -> DelayTable:
    """Solve the first-step equations for all W(n, m), 0 <= n < m <= n0.

    A balk state of 0 yields an empty table; a table over model.MAX_TABLE_CELLS
    raises ValueError.
    """
    n0 = strategy.balk_state
    check_table_size(n0, "balk state")
    W = np.full((max(n0, 1), n0 + 1), np.nan)
    if n0 > 0:
        probs = np.array(strategy.probs)[:, None]
        _sweep(params.arrival_rate, _rates(policy, n0), probs, W)
    return DelayTable(n0, W)


def marginal_delays(policy: ServiceRatePolicy, xs, params: EconomicParams) -> np.ndarray:
    """W(n0-1, n0) under each threshold-x strategy, n0 = ceil(x) (0.0 where x = 0).

    The join probabilities are model.threshold_probs, the same as
    strategy_from_x gives. Equal bit for bit to a one-strategy solve of the
    same probabilities. No table is formed: the batch is solved in chunks of
    at most _CHUNK_CELLS padded cells.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs >= 0.0) & np.isfinite(xs)):
        raise ValueError("threshold x must be finite and nonnegative")
    n0s = np.ceil(xs).astype(np.int64)
    out = np.zeros(len(xs))
    order = np.argsort(-n0s, kind="stable")
    order = order[n0s[order] > 0]
    mu = _rates(policy, int(n0s.max(initial=0)))
    size = max(1, _CHUNK_CELLS // (len(mu) + 1))
    for start in range(0, len(order), size):
        rows = order[start:start + size]
        N = int(n0s[rows[0]])
        out[rows] = _sweep(params.arrival_rate, mu[:N + 1], threshold_probs(xs[rows], N))
    return out


def arrival_delay(table: DelayTable, policy: ServiceRatePolicy, n: int) -> float:
    """Expected sojourn W(n) of a customer who joins upon finding n present.

    For n = n0 the joiner enters at the balk state: every later arrival balks
    until the next departure, so the residual service is exponential with
    rate mu_{n0+1}.
    """
    n0 = table.n0
    if not (0 <= n <= n0):
        raise ValueError(f"arrival state {n} outside [0, {n0}]")
    if n <= n0 - 1:
        return table.w(n, n + 1)
    tail = table.w(n0 - 1, n0) if n0 >= 1 else 0.0
    return 1.0 / float(policy.rates(n0 + 1)[n0]) + tail

