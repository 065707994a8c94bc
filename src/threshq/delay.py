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

A table's CSV streams to its file in blocks of rows (DelayTable.to_csv), so
writing it holds one block's text, not the table's. Most of a row's text
repeats: past m = n + K (K prefix rates) the tagged customer's remaining path
sees only the tail rate M, so W(n, m) = (n + 1) / M whatever m, and the
writer formats each run of bit-identical entries once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (EconomicParams, JoinStrategy, ServiceRatePolicy, check_table_size,
                    threshold_probs)

# strategies x padded balk state per batched sweep; larger batches are split,
# so the memory of a batched solve stays a few MB whatever its size
_CHUNK_CELLS = 1 << 15
# entries per block of rows that DelayTable.to_csv formats with one %
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

        Rows go out in blocks of about _CSV_BLOCK entries, each one string
        from a single ``%`` over a template joined from per-m pieces, so the
        writer holds one block's text at a time: memory follows the table
        and not its text, which is about 141 MB at the largest table
        check_table_size allows. Past m = n + K (K prefix rates) a tagged
        customer's path sees only the tail rate, so W(n, m) = (n + 1) / M
        for most of a row and a block repeats few bit patterns; where over
        half its entries repeat their neighbour, each run of equal bits is
        formatted once and its text repeated. Bits, not floats, are compared:
        -0.0 and 0.0 print differently, and NaN equals nothing.
        """
        file.write("n,m,W\n")
        n0 = self.n0
        # row n's template: its pieces m = n + 1..n0 joined by f"{conv}\n{n},", where
        # conv is s for a block of formatted W and .17g for a block of floats
        pieces = [f"{m},%" for m in range(n0 + 1)]
        ends = np.cumsum(n0 - np.arange(n0))  # entries in rows 0..n
        a = 0
        while a < n0:
            # rows a..b-1: as many as _CSV_BLOCK entries hold, and at least one
            b = max(int(np.searchsorted(ends, ends[a] - (n0 - a) + _CSV_BLOCK, "right")), a + 1)
            cells = np.concatenate([self.entries[n, n + 1:] for n in range(a, b)])
            bits = cells.view(np.uint64)
            runs = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))  # run starts
            conv = ".17g"
            if 2 * len(runs) < len(cells):  # over half the entries repeat their neighbour
                texts = np.array(["%.17g" % w for w in cells[runs].tolist()], dtype=object)
                cells, conv = np.repeat(texts, np.diff(runs, append=len(cells))), "s"
            file.write("".join([f"{n}," + f"{conv}\n{n},".join(pieces[n + 1:]) + f"{conv}\n"
                                for n in range(a, b)]) % tuple(cells.tolist()))
            a = b


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
    """Solve the first-step equations for all W(n, m), 0 <= n < m <= n0, and W(0..n0).

    A balk state of 0 yields an empty table; a table over model.MAX_TABLE_CELLS
    raises ValueError.
    """
    n0 = strategy.balk_state
    check_table_size(n0, "balk state")
    W = np.full((max(n0, 1), n0 + 1), np.nan)
    if n0 > 0:
        probs = np.array(strategy.probs)[:, None]
        _sweep(params.arrival_rate, _rates(policy, n0), probs, W)
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
    mu = _rates(policy, int(n0s.max(initial=0)))
    size = max(1, _CHUNK_CELLS // (len(mu) + 1))
    for start in range(0, len(order), size):
        rows = order[start:start + size]
        N = int(n0s[rows[0]])
        out[rows] = _sweep(params.arrival_rate, mu[:N + 1], threshold_probs(xs[rows], N))
    return out
