"""Parallel-efficiency model for the host-side rank executors.

The Eqs. 1-4 model prices the simulated GPU machines; this module
prices the *host* executors the functional solver actually runs on, so
the ladder's measured ``runtime.procexec.speedup_vs_single`` rung has a
prediction to sit next to:

* ``lockstep`` — rank phases run serially on the controlling thread:
  concurrency 1 regardless of cores.
* ``process`` — forked workers over shared-memory segments: no GIL, so
  concurrency is bounded only by ranks and cores.

The overlap schedule's cost bound (DESIGN §14) is also here:
:func:`overlap_step_time` prices one step of the interior/frontier
pipeline as ``max(T_comm, T_interior) + T_frontier`` — the ring
transport's packed-payload transfer hides behind interior streaming
exactly when ``T_comm <= T_interior``.
"""

from __future__ import annotations

from ..core.errors import PerfModelError
from ..runtime.executor import EXECUTOR_KINDS

__all__ = [
    "rank_concurrency",
    "parallel_efficiency",
    "predicted_speedup",
    "overlap_step_time",
]

def rank_concurrency(executor: str, num_ranks: int, cpu_count: int) -> float:
    """Effective number of rank phase bodies advancing at once.

    ``lockstep`` is 1; ``process`` is ``min(num_ranks, cpu_count)``.
    """
    if num_ranks < 1:
        raise PerfModelError("num_ranks must be >= 1")
    if cpu_count < 1:
        raise PerfModelError("cpu_count must be >= 1")
    if executor == "lockstep":
        return 1.0
    if executor == "process":
        return float(min(num_ranks, cpu_count))
    raise PerfModelError(
        f"unknown executor {executor!r}; expected one of "
        f"{', '.join(EXECUTOR_KINDS)}"
    )


def predicted_speedup(executor: str, num_ranks: int, cpu_count: int) -> float:
    """Predicted speedup over a single-rank lockstep run.

    Equal to the rank concurrency under the perfect-balance assumption
    the bisection decomposition targets (imbalance prices separately in
    the Eq. 2 term).
    """
    return rank_concurrency(executor, num_ranks, cpu_count)


def parallel_efficiency(
    executor: str, num_ranks: int, cpu_count: int
) -> float:
    """Predicted ``speedup / num_ranks`` — 1.0 is perfect strong scaling.

    On a 1-core host every executor predicts ``1 / num_ranks``: measured
    rows there are core-bound, which is why the ladder refuses to time
    more forked ranks than cores.
    """
    return predicted_speedup(executor, num_ranks, cpu_count) / num_ranks


def overlap_step_time(
    t_interior: float, t_frontier: float, t_comm: float
) -> float:
    """The overlapped schedule's step-time bound (DESIGN §14).

    ``max(T_comm, T_interior) + T_frontier``: the packed halo payloads
    cross the ring transport while interior streaming runs, so the step
    pays whichever is longer, plus the frontier finalisation that must
    wait for both.
    """
    if min(t_interior, t_frontier, t_comm) < 0:
        raise PerfModelError("phase times must be non-negative")
    return max(t_comm, t_interior) + t_frontier
