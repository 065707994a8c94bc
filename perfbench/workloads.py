"""Seeded workload generator: instance documents and CLI argument lists.

Everything a workload runs comes from its name and the seed, so one seed
always gives the same queries. Each workload is a fixed list of query slots.
A slot fixes the kind of query and its size up to a small jitter, so the work
in one pass hardly depends on the seed; the seed draws the rates, rewards,
thresholds and simulation seeds. NOTES.md says why each workload exists.
"""
from __future__ import annotations

import math
import random

CASE_STUDY_POLICY = {"T": 23, "mu_low": 2.0, "mu_high": 5.0}
TABLE1_REWARDS = "8,8.15,8.5,9.5,13"

# CLI subcommand behind each query kind
COMMAND = {
    "table1": "equilibria",
    "equilibria": "equilibria",
    "sweep_pure": "sweep",
    "sweep_mixed": "sweep",
    "delay": "delay",
    "simulate": "simulate",
    "coupling": "verify-coupling",
}


class Plan:
    """Instances and queries of one workload; paths are relative to the checkout."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.instances: dict[str, dict] = {}
        self.queries: list[dict] = []

    def instance(self, lam: float, reward: float, wait_cost: float, policy: dict) -> str:
        name = f"inst{len(self.instances):02d}"
        self.instances[name] = {"lambda": lam, "reward": reward,
                                "wait_cost": wait_cost, "policy": policy}
        return name

    def instance_path(self, name: str) -> str:
        return f"{self.workdir}/{name}.json"

    def add(self, kind: str, inst: str, args: list[str], **params) -> dict:
        qid = len(self.queries)
        argv = [COMMAND[kind], "--instance", self.instance_path(inst)] + args
        if kind == "delay":
            params["out"] = f"{self.workdir}/out/q{qid:03d}"
            argv += ["--out", params["out"]]
        query = {"id": qid, "kind": kind, "instance": inst, "argv": argv, **params}
        self.queries.append(query)
        return query

    def to_json(self) -> dict:
        return {"workload": self.workload, "seed": self.seed, "workdir": self.workdir,
                "instances": self.instances, "queries": self.queries}


def _jitter(rng: random.Random, value: float, share: float) -> float:
    return value * (1.0 + share * (2.0 * rng.random() - 1.0))


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw from each of k equal strata of [lo, hi]."""
    return [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]


def _spread_policy(rng: random.Random, tail: float, rho: float, k: int) -> dict:
    """General policy: mu_1 = rho * tail, k - 1 more prefix rates between."""
    mu1 = rho * tail
    rates = sorted(rng.uniform(mu1, tail) for _ in range(k - 1))
    return {"prefix": [mu1] + rates, "tail": tail}


def _random_policy(rng: random.Random, lo: float, hi: float, max_prefix: int) -> dict:
    """General policy with 1..max_prefix prefix rates, all drawn from [lo, hi]."""
    rates = sorted(rng.uniform(lo, hi) for _ in range(rng.randint(1, max_prefix) + 1))
    return {"prefix": rates[:-1], "tail": rates[-1]}


def _x_near(rng: random.Random, lo: int, hi: int) -> float:
    """A threshold in [lo, hi]: a pure integer or a mixed value, half each."""
    n0 = rng.randint(lo, hi)
    if rng.random() < 0.5:
        return float(n0)
    return n0 - 1 + round(rng.uniform(0.05, 0.95), 4)


def case_study(plan: Plan, rng: random.Random) -> None:
    """The paper's running instance: Table 1, then drawn rewards in [9, 10]."""
    base = plan.instance(3.0, 8.5, 1.0, CASE_STUDY_POLICY)
    plan.add("table1", base, ["--table1", TABLE1_REWARDS], published=True)
    # r_tilde M = 5R lies strictly inside (k, k+1) for k = 45, 45, 49, so
    # each slot searches a fixed number of unit intervals; four decimals
    # keep the reward exact in the Table 1 CSV. The two equal searches over
    # 24:46 are the fourth- and fifth-slowest solver queries, so the p90
    # tail lies inside the runs of two queries of equal work
    rewards = [round((k + rng.uniform(0.05, 0.95)) / 5.0, 4) for k in (45, 45, 49)]
    plan.add("table1", base, ["--table1", ",".join(map(repr, rewards))], published=False)
    for reward in rewards:
        inst = plan.instance(3.0, reward, 1.0, CASE_STUDY_POLICY)
        hi = math.floor(5 * reward) + 1
        plan.add("equilibria", inst, ["--mixed-range", f"24:{hi}"], mixed=[24, hi])
        plan.add("sweep_mixed", inst, ["--kind", "mixed_x", "--range", f"24:{hi}:0.05"],
                 lo=24.0, hi=float(hi), step=0.05)
        plan.add("sweep_pure", inst, ["--kind", "pure_n0", "--range", "1:40"], lo=1, hi=40)


def wide_enum(plan: Plan, rng: random.Random) -> None:
    """Pure enumeration over wide candidate ranges, large tables, CSV output."""
    # small r_tilde * M on arbitrary general policies: where candidates near
    # n0 = 1 are decided, and where the lower range bound matters
    # thirteen of them make 35 solver queries, so that the pooled median lies
    # in the middle of the three equal-work pure_n0 sweeps of case_study and
    # the p90 tail in the middle of the fourth-slowest query's runs
    for rm in _strata(rng, math.log(2.0), math.log(12.0), 13):
        policy = _random_policy(rng, 0.3, 5.0, 6)
        cost = rng.uniform(0.5, 2.0)
        inst = plan.instance(rng.uniform(0.5, 3.0), math.exp(rm) / policy["tail"] * cost,
                             cost, policy)
        plan.add("equilibria", inst, [])
    # wide general ranges: candidates from about 0.25 * r_tilde M to r_tilde M
    for rm in (30.0, 60.0, 100.0, 200.0):
        policy = _spread_policy(rng, rng.uniform(2.0, 5.0), rng.uniform(0.2, 0.3), 4)
        inst = plan.instance(rng.uniform(0.5, 3.0), _jitter(rng, rm, 0.01) / policy["tail"],
                             1.0, policy)
        plan.add("equilibria", inst, [])
    # two-rate policies: two small, one wide (mu_h / mu_l = 6..8) and one
    # near r_tilde M = 300 with a narrow range (mu_l / mu_h = 0.86..0.88)
    for _ in range(2):
        mu_l = rng.uniform(0.5, 2.0)
        mu_h = mu_l * rng.uniform(1.5, 4.0)
        inst = plan.instance(rng.uniform(0.5, 3.0), rng.uniform(3.0, 12.0) / mu_h, 1.0,
                             {"T": rng.randint(3, 20), "mu_low": mu_l, "mu_high": mu_h})
        plan.add("equilibria", inst, [])
    mu_l = rng.uniform(0.8, 1.2)
    mu_h = mu_l * rng.uniform(6.0, 8.0)
    inst = plan.instance(rng.uniform(0.5, 3.0), _jitter(rng, 150.0, 0.01) / mu_h, 1.0,
                         {"T": rng.randint(5, 15), "mu_low": mu_l, "mu_high": mu_h})
    plan.add("equilibria", inst, [])
    mu_h = rng.uniform(3.0, 6.0)
    mu_l = mu_h * rng.uniform(0.86, 0.88)
    inst = plan.instance(rng.uniform(0.5, 3.0), _jitter(rng, 295.0, 0.01) / mu_h, 1.0,
                         {"T": rng.randint(10, 30), "mu_low": mu_l, "mu_high": mu_h})
    plan.add("equilibria", inst, [])
    # the large-n0 solve path and CSV writing
    policy = _spread_policy(rng, rng.uniform(2.0, 5.0), rng.uniform(0.2, 0.5), 4)
    inst = plan.instance(rng.uniform(0.5, 3.0), 10.0, 1.0, policy)
    top = rng.randint(140, 150)
    plan.add("sweep_pure", inst, ["--kind", "pure_n0", "--range", f"1:{top}"], lo=1, hi=top)
    for lo, hi in ((200, 240), (260, 300)):
        x = _x_near(rng, lo, hi)
        plan.add("delay", inst, ["--x", repr(x)], x=x)


def monte_carlo(plan: Plan, rng: random.Random) -> None:
    """Both simulators on the case study and on random policies."""
    case = plan.instance(3.0, 8.5, 1.0, CASE_STUDY_POLICY)

    def sim_instance(use_case: bool) -> str:
        if use_case:
            return case
        # rates within 20% of the tail and lambda / tail in [0.55, 0.65] keep
        # the events per replication, and so the cost, close to the case study's
        tail = rng.uniform(2.0, 5.0)
        rates = sorted(tail * rng.uniform(0.8, 1.0) for _ in range(rng.randint(1, 4)))
        return plan.instance(tail * rng.uniform(0.55, 0.65), 10.0, 1.0,
                             {"prefix": rates, "tail": tail})

    # (use the case study, balk states, tagged position n, replications)
    for use_case, (lo, hi), n, reps in ((True, (24, 26), 12, 1_000_000),
                                        (False, (9, 11), 5, 150_000),
                                        (False, (17, 19), 8, 200_000)):
        inst = sim_instance(use_case)
        x = _x_near(rng, lo, hi)
        if reps != 1_000_000:
            reps = round(_jitter(rng, reps, 0.05))
        plan.add("simulate", inst, ["--n", str(n), "--x", repr(x), "--reps", str(reps),
                                    "--seed", str(rng.randrange(2**31))], n=n, x=x, reps=reps)
    # eight coupling queries with 1150 to 10^4 replications and n0 from 2 to
    # 24; large n0 is not always paired with many replications. The sizes
    # keep the eleven queries in one order by latency, with a gap of a third
    # or more around the ranks that matter: the median of all runs falls
    # among those of the two 3000-replication queries, and the p75 tail
    # among those of the two 8000-replication ones; each pair differs only
    # in its draws. (A replication costs 75 to 120 us, more at larger n0 and
    # on the case study.)
    for base, reps, use_case, copies in ((2, 6000, False, 1), (6, 1150, True, 1),
                                         (10, 8000, False, 2), (14, 3000, True, 2),
                                         (18, 2050, False, 1), (22, 10_000, True, 1)):
        inst = sim_instance(use_case)
        n0 = base + rng.randint(0, 2)
        n = max(1, n0 // 2)
        for _ in range(copies):
            args = ["--n", str(n), "--n0", str(n0), "--reps", str(reps),
                    "--seed", str(rng.randrange(2**31))]
            x = float(n0)
            if rng.random() < 0.5:
                x = n0 - 1 + round(rng.uniform(0.05, 0.95), 4)
                args += ["--x", repr(x)]
            plan.add("coupling", inst, args, n=n, n0=n0, x=x, reps=reps)


def solver(plan: Plan, rng: random.Random) -> None:
    """The case-study queries, then the wide enumerations: every solver path
    in one workload, so that each run can be long enough to be steady."""
    case_study(plan, rng)
    wide_enum(plan, rng)


WORKLOADS = {
    "solver": solver,
    "monte-carlo": monte_carlo,
}


def build(workload: str, seed: int, workdir: str) -> Plan:
    """The plan of one workload for one seed; files go under ``workdir``."""
    plan = Plan(workload, seed, workdir)
    WORKLOADS[workload](plan, random.Random(f"{workload}/{seed}"))
    return plan
