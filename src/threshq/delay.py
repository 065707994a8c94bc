"""Exact expected delays under a fixed symmetric joining strategy.

The generalized delay W(n, m) is the expected remaining sojourn of a tagged
customer with n customers ahead out of m total, when all future arrivals
follow the given strategy. The defining first-step system is triangular:
W(n, m) reads only W(n, m+1) and W(n-1, m-1), and both lie on the
anti-diagonal wavefront c + 1, where c = m - 2n. So the system is solved one
wavefront at a time, each wavefront one numpy expression over strided
slices; no general linear solver is needed.

Only a band of it needs solving. Let K be the number of prefix rates below
the tail rate M. The m - n - 1 customers behind the tagged one never leave
before it does, so once m - n > K every state it visits has more than K
present and is served at M: W(n, m) = (n + 1)/M exactly, whatever the
strategy. The kernel solves the band 1 <= m - n <= K, wavefronts c = K down
to 2 - n0, with its buffers seeded by (n + 1)/M, and a table holds
(n + 1.0)/M past the band.

The same kernel solves a batch of threshold strategies at once: their join
probabilities clip(x - m, 0, 1) run to the largest balk state ceil(x) and
are zero from each row's own balk state on, so entries past it are finite
and multiplied by p = 0, and never reach a valid entry. Callers that need
only the marginal delay W(n0-1, n0) keep two wavefronts instead of the table.

A table's CSV streams to its file one row at a time (DelayTable.to_csv), so
writing it holds one row's text, not the table's. Past the band each row
holds the one value (n + 1)/M: the writer formats it once per row and joins
the m values of the row's trailing run around it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (EconomicParams, JoinStrategy, ServiceRatePolicy, check_table_size,
                    threshold_probs)

# strategies x padded balk state per batched sweep; larger batches are split,
# so the memory of a batched solve stays a few MB whatever its size
_CHUNK_CELLS = 1 << 15
# entries per block of rows whose trailing runs DelayTable.to_csv finds at once
_CSV_BLOCK = 1 << 11


@dataclass(frozen=True)
class DelayTable:
    """Solved delays W(n, m), 0 <= n < m <= n0, under one (policy, strategy) pair, and
    the arrival delays W(n) of a customer who joins upon finding n present."""

    n0: int
    entries: np.ndarray  # shape (max(n0,1), n0+1); entries[n, m] = W(n, m), NaN elsewhere
    # W(0..n0): W(n, n + 1) below n0; a joiner at n0 sees every later arrival balk
    # until the next departure, so W(n0) = 1/mu_{n0+1} + W(n0-1, n0)
    arrival_delays: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)
        self.arrival_delays.setflags(write=False)

    def to_csv(self, file) -> None:
        """Write the table as CSV to the text stream ``file``: header n,m,W, then
        one line per entry, W to 17 significant digits.

        Each row is two parts: its trailing run, the entries whose bits
        equal those of W(n, n0), and the head before it. The head is one
        ``%`` over a template joined from the row's m values; the run
        formats W(n, n0) once and joins its m values around it. Past
        m = n + K (K prefix rates below the tail) a row holds the exact
        (n + 1)/M, so the run is most of the row. Runs are found from the
        bits, not the floats, for about _CSV_BLOCK entries' rows at a time:
        -0.0 and 0.0 print differently, and NaN equals nothing. Each row
        goes out as one string, so the writer holds one row's text at a
        time: memory follows the table and not its text, which is about
        141 MB at the largest table check_table_size allows.
        """
        file.write("n,m,W\n")
        n0 = self.n0
        ms = [str(m) for m in range(n0 + 1)]
        bits = self.entries.view(np.uint64)
        ends = np.cumsum(n0 - np.arange(n0))  # entries in rows 0..n
        a = 0
        while a < n0:
            # rows a..b-1: as many as _CSV_BLOCK entries hold, and at least one
            b = max(int(np.searchsorted(ends, ends[a] - (n0 - a) + _CSV_BLOCK, "right")), a + 1)
            # a row's run starts after its last entry unlike W(n, n0), at m = n + 1 at
            # the earliest; column a lies below every row's triangle and bounds the search
            neq = bits[a:b, a:] != bits[a:b, -1:]
            neq[:, 0] = True
            starts = np.maximum(n0 + 1 - neq[:, ::-1].argmax(axis=1), np.arange(a + 1, b + 1))
            for n, t, w in zip(range(a, b), starts.tolist(), self.entries[a:b, n0].tolist()):
                w = "%.17g" % w
                file.write((f"{n}," + f",%.17g\n{n},".join(ms[n + 1:t] + [""]))
                           % tuple(self.entries[n, n + 1:t].tolist())
                           + f",{w}\n{n},".join(ms[t:]) + f",{w}\n")
            a = b


def _band(policy: ServiceRatePolicy) -> int:
    """K, the number of prefix rates below the tail rate M: every state above K
    is served at M. The prefix is nondecreasing, so this is a binary search."""
    return int(np.searchsorted(policy.prefix, policy.max_rate))


def _sweep(lam: float, policy: ServiceRatePolicy, probs: np.ndarray,
           table: np.ndarray | None = None) -> np.ndarray:
    """Wavefronts c = min(K, N) .. 2 - N over the band 1 <= m - n <= K, for B
    strategies padded to balk state N.

    ``probs[m, b]`` is strategy b's join probability at state m (zero from
    its balk state on). Each entry is 1/den + (lp/den) W(n, m+1) +
    (mu/den) W(n-1, m-1), lp = lam p_m, den = lp + mu_m, in that order.
    Past the band, m - n > K, the tagged customer has more than K present
    until it leaves, since those behind it stay, so W(n, m) = (n + 1)/M
    exactly; both buffers are seeded with that value at n's index, where
    the band's edge m - n = K reads it before any wavefront writes n.
    Arrays are flat and n-major, B entries per n, so a wavefront is one
    contiguous slice: the buffers hold n = -1..N (zero at n = -1), and the
    coefficients are split by the parity of m. Returns W(n0-1, n0) per
    strategy; with ``table`` (B = 1) band entry (n, m = c + 2n) is also
    written at flat index c + n (N + 3).
    """
    N, B = probs.shape[0] - 1, probs.shape[1]
    n0s = np.count_nonzero(probs, axis=0)
    K = min(_band(policy), N)
    mu = policy.rates(N)
    mu = np.concatenate((mu[:1], mu))  # index m holds mu_m; index 0, read by no entry, mu_1
    lp = lam * probs
    den = lp + mu[:, None]
    # per coefficient the rows m = 0, 2, ... then m = 1, 3, ..., flattened
    inv, right, diag = (np.concatenate((x[0::2], x[1::2])).ravel()
                        for x in (1.0 / den, lp / den, mu[:, None] / den))
    # per wavefront c: entries n = lo..hi at buffer index [u, v) + B, reading
    # n - 1 at [u, v); coefficients from k, as m = c + 2 lo is row c // 2 + lo
    # of parity c & 1; table entries at c + lo (N + 3) .. c + hi (N + 3)
    c = np.arange(K, 1 - N, -1)
    lo, hi = np.maximum(1 - c, 0), np.minimum((N - c) // 2, K - c)
    u, v = lo * B, (hi + 1) * B
    k = (c // 2 + lo) * B + (c & 1) * ((N + 2) // 2 * B)
    bounds = u, v, u + B, v + B, k, k + v - u, v - u, c + lo * (N + 3), c + hi * (N + 3) + 1
    bufs = np.empty((2, (N + 2) * B))
    bufs[:] = np.repeat(np.arange(N + 2.0) / policy.max_rate, B)  # index n + 1: (n + 1)/M
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
    # wavefront j = K - c, counted from 0, wrote bufs[(j + 1) % 2]; strategy b's
    # last is j = K + n0 - 2 (at K = 0 both buffers hold the seed)
    return bufs[(K + n0s - 1) % 2, n0s * B + np.arange(B)]


def solve_delay_table(policy: ServiceRatePolicy, strategy: JoinStrategy,
                      params: EconomicParams) -> DelayTable:
    """Solve the first-step equations for all W(n, m), 0 <= n < m <= n0, and W(0..n0).

    Entries past the band, m - n > K, are (n + 1.0)/M. A balk state of 0
    yields an empty table; a table over model.MAX_TABLE_CELLS raises
    ValueError.
    """
    n0 = strategy.balk_state
    check_table_size(n0, "balk state")
    # row n: NaN (below the triangle, then the band) up to m = n + K, then (n + 1)/M
    n = np.arange(max(n0, 1))
    edge = np.minimum(n + _band(policy), n0) + 1
    W = np.repeat(np.column_stack((np.full(len(n), np.nan), (n + 1.0) / policy.max_rate)).ravel(),
                  np.column_stack((edge, n0 + 1 - edge)).ravel()).reshape(len(n), n0 + 1)
    if n0 > 0:
        _sweep(params.arrival_rate, policy, np.array(strategy.probs)[:, None], W)
    at_balk = 1.0 / float(policy.rates(n0 + 1)[n0]) + (W[n0 - 1, n0] if n0 else 0.0)
    return DelayTable(n0, W, np.append(W.diagonal(1), at_balk))


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
    size = max(1, _CHUNK_CELLS // (int(n0s.max(initial=0)) + 2))
    for start in range(0, len(order), size):
        rows = order[start:start + size]
        N = int(n0s[rows[0]])
        out[rows] = _sweep(params.arrival_rate, policy, threshold_probs(xs[rows], N))
    return out
