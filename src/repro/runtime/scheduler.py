"""Layer-granularity multi-tenant scheduling (extension).

The paper motivates flexible memory management with multi-tenancy but
evaluates single models.  This module adds the missing runtime layer: a
scheduler that time-multiplexes one accelerator between concurrent
inference requests at layer granularity, using each model's execution
plan for per-layer latency and traffic.

Two disciplines:

* **FCFS** — requests run to completion in arrival order (minimal
  switching, worst tail latency for short jobs behind long ones);
* **round-robin** — one layer per tenant per turn (fair progress, but
  every preemption between an inter-layer-reuse producer/consumer pair
  *breaks the donation*: the ofmap must spill after all and the ifmap
  reload returns, which the scheduler charges exactly).

Because the unified scratchpad is software-managed per layer, context
switches carry no other state: the next layer's tiles simply stream into
the buffer.  That is precisely the adaptability argument of the paper's
introduction, and the scheduler quantifies its cost side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..analyzer.plan import ExecutionPlan, make_assignment


class Discipline(enum.Enum):
    """Scheduling discipline for concurrent requests."""

    FCFS = "fcfs"
    ROUND_ROBIN = "round_robin"


@dataclass(frozen=True)
class Request:
    """One inference request."""

    name: str
    plan: ExecutionPlan
    arrival_cycle: float = 0.0

    def __post_init__(self) -> None:
        if self.arrival_cycle < 0:
            raise ValueError("arrival_cycle must be non-negative")


@dataclass(frozen=True)
class RequestOutcome:
    """Scheduling outcome of one request."""

    name: str
    arrival_cycle: float
    start_cycle: float
    completion_cycle: float
    accesses_bytes: int
    broken_donations: int

    @property
    def turnaround_cycles(self) -> float:
        return self.completion_cycle - self.arrival_cycle


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of a whole multi-tenant schedule."""

    discipline: Discipline
    outcomes: tuple[RequestOutcome, ...]
    makespan_cycles: float

    @property
    def mean_turnaround_cycles(self) -> float:
        return sum(o.turnaround_cycles for o in self.outcomes) / len(self.outcomes)

    @property
    def total_accesses_bytes(self) -> int:
        return sum(o.accesses_bytes for o in self.outcomes)

    @property
    def total_broken_donations(self) -> int:
        return sum(o.broken_donations for o in self.outcomes)


@dataclass
class _Job:
    request: Request
    next_layer: int = 0
    start_cycle: float | None = None
    accesses_bytes: int = 0
    broken_donations: int = 0

    @property
    def done(self) -> bool:
        return self.next_layer >= len(self.request.plan.assignments)


def _layer_cost(
    job: _Job, preempted_since_last_layer: bool
) -> tuple[float, int, bool]:
    """(cycles, bytes, donation_broken) for the job's next layer.

    A preemption between a donating producer and its consumer breaks the
    donation: the producer's saved ofmap write-back happens after all
    (charged here to the consumer's turn, where the breakage is detected)
    and the consumer pays its full ifmap reads.
    """
    plan = job.request.plan
    index = job.next_layer
    assignment = plan.assignments[index]
    if not (assignment.receives and preempted_since_last_layer):
        return assignment.latency_cycles, assignment.accesses_bytes, False
    # Re-materialize the layer without the donated input, and charge the
    # producer's ofmap write-back that the donation had elided.
    producer = plan.assignments[index - 1]
    fallback = make_assignment(
        index,
        assignment.layer,
        assignment.evaluation,
        plan.spec,
        receives=False,
        donates=assignment.donates,
    )
    spill_bytes = (
        producer.evaluation.plan.traffic.ofmap_writes * plan.spec.bytes_per_elem
    )
    spill_cycles = plan.spec.transfer_cycles(spill_bytes)
    return (
        fallback.latency_cycles + spill_cycles,
        fallback.accesses_bytes + spill_bytes,
        True,
    )


def schedule(
    requests: list[Request], discipline: Discipline = Discipline.FCFS
) -> ScheduleResult:
    """Simulate the schedule; returns per-request and aggregate outcomes."""
    if not requests:
        raise ValueError("need at least one request")
    jobs = [_Job(request=r) for r in sorted(requests, key=lambda r: r.arrival_cycle)]
    clock = 0.0
    last_ran: _Job | None = None
    outcomes: dict[str, RequestOutcome] = {}
    names = [j.request.name for j in jobs]
    if len(set(names)) != len(names):
        raise ValueError("request names must be unique")

    def runnable() -> list[_Job]:
        return [j for j in jobs if not j.done and j.request.arrival_cycle <= clock]

    def pending() -> list[_Job]:
        return [j for j in jobs if not j.done]

    rr_cursor = 0
    while pending():
        ready = runnable()
        if not ready:
            clock = min(j.request.arrival_cycle for j in pending())
            continue
        if discipline is Discipline.FCFS:
            job = ready[0]
            layers_to_run = len(job.request.plan.assignments) - job.next_layer
        else:
            rr_cursor %= len(ready)
            job = ready[rr_cursor]
            rr_cursor += 1
            layers_to_run = 1

        for _ in range(layers_to_run):
            preempted = last_ran is not job and job.next_layer > 0
            cycles, nbytes, broken = _layer_cost(job, preempted)
            if job.start_cycle is None:
                job.start_cycle = clock
            clock += cycles
            job.accesses_bytes += nbytes
            job.broken_donations += int(broken)
            job.next_layer += 1
            last_ran = job
        if job.done:
            outcomes[job.request.name] = RequestOutcome(
                name=job.request.name,
                arrival_cycle=job.request.arrival_cycle,
                start_cycle=job.start_cycle or 0.0,
                completion_cycle=clock,
                accesses_bytes=job.accesses_bytes,
                broken_donations=job.broken_donations,
            )

    ordered = tuple(outcomes[j.request.name] for j in jobs)
    return ScheduleResult(
        discipline=discipline, outcomes=ordered, makespan_cycles=clock
    )
