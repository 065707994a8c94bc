"""Domain types: service rate policies, joining strategies, economic parameters.

All types are immutable after construction and safe to share across workers.
A threshold x maps to join probabilities in one place, ``threshold_probs``:
clip(x - m, 0, 1) at state m, used as computed, however close to 0 or 1.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np


class InstanceError(ValueError):
    """Invalid instance document or parameter set."""


@dataclass(frozen=True)
class ServiceRatePolicy:
    """Nondecreasing service rate sequence with a constant tail.

    ``prefix`` holds the rates for states 1..K; every state beyond K is
    served at ``tail_rate``, which is also the supremum M of the sequence.
    ``threshold_form`` is set when the policy is a two-rate policy
    (T, mu_low, mu_high): rate mu_low for 1 <= n <= T, mu_high above.
    """

    prefix: tuple[float, ...]
    tail_rate: float
    threshold_form: tuple[int, float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(float(r) for r in self.prefix))
        object.__setattr__(self, "tail_rate", float(self.tail_rate))
        if self.tail_rate <= 0.0:
            raise InstanceError("tail rate must be positive")
        prev = 0.0
        for r in self.prefix:
            if r <= 0.0:
                raise InstanceError("service rates must be positive")
            if r < prev:
                raise InstanceError("service rates must be nondecreasing")
            prev = r
        if prev > self.tail_rate:
            raise InstanceError("prefix rates must not exceed the tail rate")
        if self.threshold_form is not None:
            T, mu_low, mu_high = self.threshold_form
            if not (isinstance(T, int) and T >= 1):
                raise InstanceError("service threshold T must be a positive integer")
            if not (0.0 < mu_low < mu_high):
                raise InstanceError("two-rate policy needs 0 < mu_low < mu_high")
            if self.prefix != (float(mu_low),) * T or self.tail_rate != float(mu_high):
                raise InstanceError("threshold_form inconsistent with rate sequence")
            object.__setattr__(self, "threshold_form", (T, float(mu_low), float(mu_high)))

    @classmethod
    def constant(cls, mu: float) -> "ServiceRatePolicy":
        return cls((), mu)

    @classmethod
    def two_rate(cls, T: int, mu_low: float, mu_high: float) -> "ServiceRatePolicy":
        """Serve at mu_low while at most T customers are present, else mu_high."""
        return cls((float(mu_low),) * int(T), float(mu_high), (int(T), float(mu_low), float(mu_high)))

    @property
    def max_rate(self) -> float:
        """The supremum M of the rate sequence."""
        return self.tail_rate

    def rate_at(self, n: int) -> float:
        """Service rate when n customers are present; defined for n >= 1."""
        if n < 1:
            raise ValueError("service rate is undefined with no customers present")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.tail_rate

    def rates(self, n: int) -> np.ndarray:
        """The rates mu_1..mu_n, with 1..n present: the prefix, then the tail rate repeated."""
        head = self.prefix[:n]
        return np.concatenate((head, np.full(n - len(head), self.tail_rate)))


@dataclass(frozen=True)
class EconomicParams:
    """Arrival rate and reward/cost economics; r_tilde = reward / wait_cost."""

    arrival_rate: float
    reward: float
    wait_cost: float
    r_tilde: float = field(init=False)

    def __post_init__(self):
        if self.arrival_rate <= 0.0:
            raise InstanceError("arrival rate must be positive")
        if self.wait_cost <= 0.0:
            raise InstanceError("waiting cost must be positive")
        if self.reward < 0.0:
            raise InstanceError("reward must be nonnegative")
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
    if not x >= 0.0:
        raise InstanceError("threshold x must be nonnegative")
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
        from .delay import check_cells  # delay imports this module
        check_cells(T, "policy T")  # the prefix holds T rates
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
    return parse_instance(doc)
