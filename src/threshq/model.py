"""Domain types: service rate policies, joining strategies, economic parameters.

All types are immutable after construction and safe to share across workers.
A threshold x maps to join probabilities in one place, ``threshold_probs``:
clip(x - m, 0, 1) at state m, used as computed, however close to 0 or 1.
"""
from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np


# the most values one array may hold, checked by check_cells before it is
# built: a full delay table, n0 rows x (n0 + 1) columns (about 80 MB, n0 up to
# 3161); a mixed sweep's grid points x (its balk state ceil(x_hi) + 1); a
# simulation's replications; and a coupling's replications x (n + 1)
MAX_TABLE_CELLS = 10**7
# the smallest service rate a policy may hold. A delay W(n, m) is at most
# (n + 1) / mu_1 with n + 1 <= 3,162 < 2^12, and a coupling time at most n + 1
# requirements (each below 2^6) served at mu_1 or faster, so both stay below
# 2^18 / mu_1 <= 2^1018, short of the 2^1024 where floats overflow. Over
# replications, a coupling's mean gap sums at most MAX_TABLE_CELLS / (n + 1) <
# 2^24 / (n + 1) gaps of mean at most (n + 1) / mu_1, and simulate_sojourn takes
# its sums at a scale that keeps them finite.
MIN_RATE = 2.0**-1000


class InstanceError(ValueError):
    """Invalid instance document or parameter set."""


def _shown(v: float) -> str:
    """A count or balk state to 15 significant digits below 10^15, else to six."""
    return f"{v:.15g}" if v < 1e15 else f"{v:.6g}"


def check_cells(cells: float, what: str) -> None:
    """Raise ValueError when ``what`` would hold more than MAX_TABLE_CELLS
    values, or a NaN or infinite count."""
    if not cells <= MAX_TABLE_CELLS:
        shown = math.inf if cells > sys.float_info.max else cells  # an int past any float
        raise ValueError(f"{what} needs {_shown(shown)} values, over the limit of {MAX_TABLE_CELLS}")


def check_table_size(top: float, what: str) -> None:
    """Raise ValueError unless ``top``, named ``what``, is finite and the full
    table for balk state ceil(top) is within check_cells."""
    if not math.isfinite(top):
        raise ValueError(f"{what} must be finite, got {top!r}")
    n0 = math.ceil(top)
    check_cells(max(n0, 1) * (n0 + 1.0), f"delay table for balk state {_shown(n0)}")


@dataclass(frozen=True, eq=False)
class ServiceRatePolicy:
    """Nondecreasing service rate sequence with a constant tail.

    ``prefix`` is a read-only float64 array of the rates for states 1..K;
    every state beyond K is served at ``max_rate``, which is also the
    supremum M of the sequence. ``rates(n)`` is the one way to read rates.
    A policy is its rates: ``threshold_form`` is read from them, whichever
    constructor built them. A ``two_rate`` prefix is a broadcast view of
    mu_low, one float whatever T. Policies compare by identity.
    """

    prefix: np.ndarray
    max_rate: float

    def __post_init__(self):
        prefix = np.asarray(self.prefix, dtype=float)
        if prefix.flags.writeable:  # share no buffer a caller can still write
            prefix = prefix.copy()
            prefix.setflags(write=False)
        tail = float(self.max_rate)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "max_rate", tail)
        if not math.isfinite(tail):  # then the NaN-failing tests below refuse any non-finite rate
            raise InstanceError("tail rate must be finite")
        if not tail > 0.0:
            raise InstanceError("tail rate must be positive")
        if not (prefix > 0.0).all():
            raise InstanceError("service rates must be positive")
        if not (prefix[1:] >= prefix[:-1]).all():
            raise InstanceError("service rates must be nondecreasing")
        if not (prefix[-1:] <= tail).all():
            raise InstanceError("prefix rates must not exceed the tail rate")
        low = float(prefix[0]) if len(prefix) else tail  # the rates are ordered now
        if low < MIN_RATE:
            raise InstanceError(f"service rate {low!r} is too small: below the floor 2^-1000")

    @property
    def threshold_form(self) -> tuple[int, float, float] | None:
        """(T, mu_low, mu_high) when the rates are mu_low on states 1..T and mu_high
        above, else None (a nondecreasing prefix with equal ends is constant)."""
        p = self.prefix
        if len(p) and p[0] == p[-1] < self.max_rate:
            return len(p), float(p[0]), self.max_rate
        return None

    @classmethod
    def constant(cls, mu: float) -> "ServiceRatePolicy":
        return cls((), mu)

    @classmethod
    def two_rate(cls, T: int, mu_low: float, mu_high: float) -> "ServiceRatePolicy":
        """Serve at mu_low while at most T customers are present, else mu_high."""
        if not (isinstance(T, numbers.Integral) and T >= 1):
            raise InstanceError("service threshold T must be a positive integer")
        if not (0.0 < mu_low < mu_high):
            raise InstanceError("two-rate policy needs 0 < mu_low < mu_high")
        return cls(np.broadcast_to(float(mu_low), int(T)), mu_high)

    def rates(self, n: int) -> np.ndarray:
        """The rates mu_1..mu_n, with 1..n present: the prefix, then the tail rate repeated."""
        head = self.prefix[:n]
        return np.concatenate((head, np.full(n - len(head), self.max_rate)))


@dataclass(frozen=True)
class EconomicParams:
    """Arrival rate and reward/cost economics; r_tilde = reward / wait_cost."""

    arrival_rate: float
    reward: float
    wait_cost: float
    r_tilde: float = field(init=False)

    def __post_init__(self):
        # each test fails on NaN, and an infinity fails its bound
        if not 0.0 < self.arrival_rate < math.inf:
            raise InstanceError(
                f"arrival rate must be positive and finite, got {self.arrival_rate!r}")
        if not 0.0 < self.wait_cost < math.inf:
            raise InstanceError(f"waiting cost must be positive and finite, got {self.wait_cost!r}")
        if not 0.0 <= self.reward < math.inf:
            raise InstanceError(f"reward must be nonnegative and finite, got {self.reward!r}")
        object.__setattr__(self, "r_tilde", self.reward / self.wait_cost)


@dataclass(frozen=True)
class JoinStrategy:
    """Join-probability vector p_0..p_{n0} with p_{n0} = 0.

    Every probability must be finite and in [0, 1], and at least one zero;
    none is rounded. The vector is canonical: it ends at the first zero (the
    balk state), and all later states implicitly prescribe balking.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        bad = ~((p >= 0.0) & (p <= 1.0))
        if bad.any():
            raise InstanceError(f"join probability {float(p[bad][0])!r} outside [0, 1]")
        zeros = np.flatnonzero(p == 0.0)
        if zeros.size == 0:
            raise InstanceError("strategy must balk at some finite state")
        object.__setattr__(self, "probs", tuple(p[: zeros[0] + 1].tolist()))

    @property
    def balk_state(self) -> int:
        """First state where joining has probability zero."""
        return len(self.probs) - 1


def threshold_probs(xs, n: int) -> np.ndarray:
    """Join probabilities clip(x - m, 0, 1) at states m = 0..n, one column per
    threshold x: join below floor(x), join with probability x - floor(x) at
    floor(x), balk from ceil(x) on."""
    return np.clip(np.asarray(xs, dtype=float) - np.arange(n + 1.0)[:, None], 0.0, 1.0)


def strategy_from_x(x: float) -> JoinStrategy:
    """Build the join strategy induced by threshold x; its balk state is ceil(x)."""
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise InstanceError(f"threshold x must be finite and nonnegative, got {x!r}")
    return JoinStrategy(threshold_probs([x], math.ceil(x))[:, 0])


_TOP_KEYS = {"lambda", "reward", "wait_cost", "policy"}
_PREFIX_KEYS = {"prefix", "tail"}
_TWO_RATE_KEYS = {"T", "mu_low", "mu_high"}


def _finite(value, name: str) -> float:
    """A JSON number (an int or float, not a bool) as a float, rejecting NaN,
    infinities and integers past any float (json accepts all three)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(f"{name} must be a number, got {type(value).__name__}")
    try:
        x = float(value)
    except OverflowError:  # an int past any float
        x = math.inf if value > 0 else -math.inf
    if not math.isfinite(x):
        raise InstanceError(f"{name} must be a finite number, got {x!r}")
    return x


def parse_instance(doc: dict) -> tuple[EconomicParams, ServiceRatePolicy]:
    """Parse a problem-instance document; unknown keys and non-finite numbers are rejected."""
    if not isinstance(doc, dict):
        raise InstanceError("instance must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise InstanceError(f"unknown instance keys: {sorted(unknown)}")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise InstanceError(f"missing instance keys: {sorted(missing)}")
    params = EconomicParams(*(_finite(doc[k], k) for k in ("lambda", "reward", "wait_cost")))
    pol = doc["policy"]
    if not isinstance(pol, dict):
        raise InstanceError("policy must be a JSON object")
    keys = set(pol)
    if keys == _PREFIX_KEYS:
        prefix = pol["prefix"]
        if not isinstance(prefix, list):
            raise InstanceError("policy prefix must be a list")
        policy = ServiceRatePolicy(tuple(_finite(r, "policy prefix rate") for r in prefix),
                                   _finite(pol["tail"], "policy tail"))
    elif keys == _TWO_RATE_KEYS:
        T = pol["T"]
        if not isinstance(T, int) or isinstance(T, bool):
            raise InstanceError("policy T must be an integer")
        check_cells(T, "policy T")  # the constructor's checks read all T rates
        policy = ServiceRatePolicy.two_rate(T, _finite(pol["mu_low"], "policy mu_low"),
                                            _finite(pol["mu_high"], "policy mu_high"))
    else:
        raise InstanceError(f"policy keys must be {sorted(_PREFIX_KEYS)} or {sorted(_TWO_RATE_KEYS)}, got {sorted(keys)}")
    return params, policy


def load_instance(path) -> tuple[EconomicParams, ServiceRatePolicy]:
    """Load and validate an instance JSON file."""
    def json_int(text: str) -> int:  # json hands over integer literals only
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise InstanceError(f"instance file {path} holds an integer of {len(text.lstrip('-'))} "
                                f"digits, over the limit of {sys.get_int_max_str_digits()}") from None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=json_int)
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InstanceError(f"instance file is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InstanceError(f"instance file {path} is not UTF-8 text "
                            f"(byte {exc.start}: {exc.reason})") from None
    return parse_instance(doc)
