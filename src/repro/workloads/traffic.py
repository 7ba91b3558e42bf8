"""Traffic generation: the statement stream the simulation runner feeds.

A closed-loop run (:func:`repro.service.overload.run_closed_loop`)
models a fixed population of clients that each wait for one answer
before sending the next statement — under overload such a population
politely slows down, which is exactly why closed-loop load tests miss
capacity cliffs ("coordinated omission").  Production traffic against a
shared DBSP (paper §I: many tenants, one service) is **open-loop**:
arrivals keep coming whether or not earlier queries finished.  This
module generates that arrival process deterministically (a closed-loop
run deals the same statements to its clients and ignores the
timestamps):

* **Heavy-tailed inter-arrivals** — Pareto(α) gaps scaled to a target
  mean rate.  α close to 1 produces the bursty, long-tailed arrival
  clumps real tenant mixes show; α → ∞ degenerates toward a constant
  gap.
* **Zipfian key skew** — point reads/updates draw their key through a
  Zipf rank over a shuffled ranking of the populated keys, so a small
  hot set absorbs most of the traffic (cache-busting for the share
  cache, lock-contention fuel for the service layer).
* **Session labels** — every event names a session drawn from a live
  pool; after each query a session retires with probability
  ``1/session_mean_queries`` (geometric lifetimes) and is replaced by a
  fresh one.  The label is descriptive only: the simulation runner
  admits by priority and never reads ``session_id``, so session setup
  and teardown cost nothing in a run.
* **Mixed statement kinds** — point select, salary-range select,
  aggregate (COUNT over a range), update, insert — with configurable
  weights, each tagged with a priority class for the admission layer.

Everything is driven by named :class:`~repro.sim.rng.DeterministicRNG`
substreams, so a (seed, profile, n_queries) triple always yields the
identical event list — the overload benchmarks gate on modelled numbers
and need bit-stable traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim.rng import DeterministicRNG, zipf_sampler
from .employees import EID_HI, SALARY_HI, SALARY_LO

#: Statement kinds a traffic event can carry.
KIND_POINT = "point"
KIND_RANGE = "range"
KIND_AGGREGATE = "aggregate"
KIND_UPDATE = "update"
KIND_INSERT = "insert"

_NAMES = ["ALICE", "BOB", "CARLA", "DEVI", "EMIL", "FARAH", "GUS", "HANA"]
_DEPTS = ["SALES", "ENG", "HR", "OPS"]

#: Width of range/aggregate salary windows.
_RANGE_SPAN = 10_000


@dataclass(frozen=True)
class TrafficProfile:
    """Shape of an open-loop arrival process.

    ``mean_interarrival`` is in modelled seconds; the actual gaps are
    Pareto(``pareto_alpha``) distributed with that mean, so bursts far
    denser than the mean are routine.  ``mix`` weights the statement
    kinds ``(point, range, aggregate, update, insert)``;
    ``priority_weights`` weights the admission classes
    ``(interactive, batch, background)``.
    """

    mean_interarrival: float = 0.05
    pareto_alpha: float = 1.5
    mix: Tuple[float, float, float, float, float] = (
        0.50, 0.15, 0.10, 0.15, 0.10,
    )
    zipf_skew: float = 1.1
    session_mean_queries: float = 8.0
    priority_weights: Tuple[float, float, float] = (0.6, 0.25, 0.15)

    def __post_init__(self) -> None:
        if self.mean_interarrival <= 0:
            raise ConfigurationError(
                f"mean_interarrival must be > 0, got {self.mean_interarrival}"
            )
        if self.pareto_alpha <= 1.0:
            # α ≤ 1 has no finite mean: the arrival rate would be
            # undefined and the generator could not hit a target load
            raise ConfigurationError(
                f"pareto_alpha must be > 1 (finite mean), got "
                f"{self.pareto_alpha}"
            )
        if len(self.mix) != 5 or any(w < 0 for w in self.mix) or not sum(self.mix):
            raise ConfigurationError(
                f"mix must be 5 non-negative weights with a positive sum, "
                f"got {self.mix}"
            )
        if self.zipf_skew < 0:
            raise ConfigurationError(
                f"zipf_skew must be >= 0, got {self.zipf_skew}"
            )
        if self.session_mean_queries < 1:
            raise ConfigurationError(
                f"session_mean_queries must be >= 1, got "
                f"{self.session_mean_queries}"
            )
        if len(self.priority_weights) != 3 or any(
            w < 0 for w in self.priority_weights
        ) or not sum(self.priority_weights):
            raise ConfigurationError(
                f"priority_weights must be 3 non-negative weights with a "
                f"positive sum, got {self.priority_weights}"
            )

    def scaled(self, load_factor: float) -> "TrafficProfile":
        """The same profile at ``load_factor`` × the arrival rate."""
        if load_factor <= 0:
            raise ConfigurationError(
                f"load_factor must be > 0, got {load_factor}"
            )
        return TrafficProfile(
            mean_interarrival=self.mean_interarrival / load_factor,
            pareto_alpha=self.pareto_alpha,
            mix=self.mix,
            zipf_skew=self.zipf_skew,
            session_mean_queries=self.session_mean_queries,
            priority_weights=self.priority_weights,
        )


DEFAULT_PROFILE = TrafficProfile()


@dataclass(frozen=True)
class TrafficEvent:
    """One arriving query: when, who, what, and how important.

    ``sql`` is what runs: the simulation runner executes it and its
    plaintext mirror parses it again for the expected answer.  ``params``
    repeats the statement's operands in structured form — point
    ``(eid,)``, range/aggregate ``(lo, hi)``, update ``(eid, salary)``,
    insert ``(eid, name, lastname, department, salary)`` — for tests
    and tools; nothing under ``src/`` reads it.
    """

    arrival: float
    session_id: str
    sql: str
    kind: str
    priority: int
    params: Tuple = ()

    @property
    def is_write(self) -> bool:
        return self.kind in (KIND_UPDATE, KIND_INSERT)


def _pareto_gaps(rng: DeterministicRNG, mean: float, alpha: float):
    """Infinite Pareto(α) gap stream with the given mean.

    A Pareto with shape α and scale x_m has mean x_m·α/(α−1); solving
    for x_m pins the long-run arrival rate at 1/mean while keeping the
    heavy tail.  Inverse-CDF draw: gap = x_m / (1−U)^(1/α).
    """
    x_m = mean * (alpha - 1.0) / alpha

    def draw() -> float:
        u = rng.random()  # in [0, 1) → 1-u in (0, 1]: no division by zero
        return x_m / ((1.0 - u) ** (1.0 / alpha))

    return draw


def _weighted_index(rng: DeterministicRNG, weights: Sequence[float]) -> int:
    """Weighted choice of an index (deterministic, stdlib-free)."""
    roll = rng.random() * sum(weights)
    acc = 0.0
    for index, weight in enumerate(weights):
        acc += weight
        if roll < acc:
            return index
    return len(weights) - 1


def generate_traffic(
    eids: Sequence[int],
    n_queries: int,
    seed: int = 7,
    profile: TrafficProfile = DEFAULT_PROFILE,
    table: str = "Employees",
) -> List[TrafficEvent]:
    """Deterministic open-loop event list over a populated key set.

    ``eids`` is the populated key set (point/update targets are drawn
    from it Zipf-hot); inserted keys are allocated downward from
    :data:`~repro.workloads.employees.EID_HI`, so they stay inside the
    attribute domain and never repeat within a run.
    """
    if not eids:
        raise ConfigurationError(
            "cannot generate traffic over an empty table"
        )
    if n_queries < 0:
        raise ConfigurationError(
            f"n_queries must be >= 0, got {n_queries}"
        )
    # imported lazily: workloads sit below the service layer, and the
    # service's simulation runner imports this module — a module-level
    # import here would close that cycle
    from ..service.admission import (
        PRIORITY_BACKGROUND,
        PRIORITY_BATCH,
        PRIORITY_INTERACTIVE,
    )

    root = DeterministicRNG(seed, "traffic")
    arrivals_rng = root.substream("arrivals")
    keys_rng = root.substream("keys")
    mix_rng = root.substream("mix")
    values_rng = root.substream("values")
    priority_rng = root.substream("priority")
    churn_rng = root.substream("churn")

    gap = _pareto_gaps(
        arrivals_rng, profile.mean_interarrival, profile.pareto_alpha
    )
    # rank the keys independently of their numeric order so the hot set
    # is an arbitrary subset, then draw ranks Zipf-hot
    ranked = keys_rng.shuffled(list(eids))
    rank = zipf_sampler(keys_rng, len(ranked), profile.zipf_skew)

    sessions_alive = 0

    def new_session() -> str:
        nonlocal sessions_alive
        sessions_alive += 1
        return f"flood-{sessions_alive}"

    # a small live pool: one session per expected concurrent stream
    pool: List[str] = [new_session() for _ in range(8)]
    retire_probability = 1.0 / profile.session_mean_queries

    priorities = (PRIORITY_INTERACTIVE, PRIORITY_BATCH, PRIORITY_BACKGROUND)
    events: List[TrafficEvent] = []
    clock = 0.0
    inserts = 0
    for position in range(n_queries):
        clock += gap()
        slot = churn_rng.randrange(len(pool))
        session_id = pool[slot]
        if churn_rng.random() < retire_probability:
            pool[slot] = new_session()  # churn: retire after this query
        kind_index = _weighted_index(mix_rng, profile.mix)
        priority = priorities[
            _weighted_index(priority_rng, profile.priority_weights)
        ]
        if kind_index == 0:
            kind = KIND_POINT
            eid = ranked[rank() - 1]
            sql = f"SELECT name, salary FROM {table} WHERE eid = {eid}"
            params: Tuple = (eid,)
        elif kind_index == 1:
            kind = KIND_RANGE
            lo = values_rng.randint(SALARY_LO, SALARY_HI - _RANGE_SPAN)
            sql = (
                f"SELECT eid FROM {table} "
                f"WHERE salary BETWEEN {lo} AND {lo + _RANGE_SPAN}"
            )
            params = (lo, lo + _RANGE_SPAN)
        elif kind_index == 2:
            kind = KIND_AGGREGATE
            lo = values_rng.randint(SALARY_LO, SALARY_HI - _RANGE_SPAN)
            sql = (
                f"SELECT COUNT(*) FROM {table} "
                f"WHERE salary BETWEEN {lo} AND {lo + _RANGE_SPAN}"
            )
            params = (lo, lo + _RANGE_SPAN)
        elif kind_index == 3:
            kind = KIND_UPDATE
            eid = ranked[rank() - 1]
            salary = values_rng.randint(SALARY_LO, SALARY_HI)
            sql = f"UPDATE {table} SET salary = {salary} WHERE eid = {eid}"
            params = (eid, salary)
        else:
            kind = KIND_INSERT
            # fresh keys from the top of the domain (distinct across the
            # run by construction; a collision with a populated row is
            # vanishingly unlikely and harmless)
            eid = EID_HI - inserts
            inserts += 1
            name = _NAMES[position % len(_NAMES)]
            dept = _DEPTS[inserts % len(_DEPTS)]
            salary = values_rng.randint(SALARY_LO, SALARY_HI)
            sql = (
                f"INSERT INTO {table} "
                f"(eid, name, lastname, department, salary) VALUES "
                f"({eid}, '{name}', 'FLOOD', '{dept}', {salary})"
            )
            params = (eid, name, "FLOOD", dept, salary)
        events.append(
            TrafficEvent(
                arrival=clock,
                session_id=session_id,
                sql=sql,
                kind=kind,
                priority=priority,
                params=params,
            )
        )
    return events
