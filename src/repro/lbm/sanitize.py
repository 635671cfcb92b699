"""Runtime sanitizer for the LBM double buffer and halo exchange.

``SolverConfig(sanitize=True)`` turns on the dynamic counterpart of the
static K40x plan verifier: where :mod:`repro.lint.plancheck` proves the
index tables sound before the first step, the sanitizer catches the bugs
that only exist at runtime — a dropped completion, a skipped scatter, a
double scatter.  Both schedules run the same exchange (the packed
cross-link payload, scattered onto the frontier after the full-plan
gather), so every check holds on either.  Two mechanisms:

**NaN canaries.**  Right after the full-plan gather, inside the rank's
own stream phase, every provisional (halo-sourced) destination is
filled with NaN — the placeholder the gather left there.  A correct
frontier scatter overwrites all of them; any NaN surviving in ``f`` at
the end of the step is proof of an unscattered payload — a
wrong-results bug that is otherwise silent.

**Epoch tracking.**  Payloads and provisional destinations are tracked
bit-precisely against the step number: a scatter of a payload that did
not complete this step (last step's values still staged), a double
scatter and a never-finalized destination are reported even when the
values involved happen to look plausible.

The epoch checks are rank-local and run inside the rank's own phase
bodies, where the epoch state is written — in the forked worker under
``executor="process"`` — so they keep full strength on both tiers.  The
never-finalized and leftover-payload checks run where the rank's
frontier scatter finishes (:meth:`StepSanitizer.end_frontier`).  A phase
body touching another rank's state is ruled out statically, by the
W501/W503 lint rules.

Telemetry: ``sanitize.steps_checked``, ``sanitize.slots_poisoned``
and ``sanitize.violations`` counters on the global registry.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

import numpy as np

from ..core.errors import SanitizeError
from ..telemetry.metrics import get_registry

__all__ = ["StepSanitizer", "check_finite"]


def check_finite(f: np.ndarray, num_owned: int, context: str) -> None:
    """Raise :class:`SanitizeError` if owned columns contain NaN."""
    owned = f[:, :num_owned]
    bad = np.isnan(owned)
    if bad.any():
        cols = np.unique(np.nonzero(bad)[1])[:4].tolist()
        raise SanitizeError(
            f"{context}: NaN canary reached {int(bad.sum())} owned "
            f"slot(s) (first nodes {cols}); an unscattered payload "
            "leaked into owned state"
        )


class StepSanitizer:
    """Per-step runtime checks over a distributed solver's rank states.

    The solver calls the hooks from its phase bodies (each guarded by a
    single ``is not None`` check so ``sanitize=False`` costs one branch):

    * :meth:`begin_step` — reset freshness state;
    * :meth:`on_stream` — after the full-plan gather, poisons and marks
      the provisional destinations the scatter must finalize;
    * :meth:`on_payload` / :meth:`on_scatter` — payload bookkeeping plus
      the stale-payload and double-scatter checks;
    * :meth:`end_frontier` — after the rank's scatter: leftover-payload
      and never-finalized checks;
    * :meth:`end_step` — the canary sweep.
    """

    def __init__(self, ranks: Sequence[object]) -> None:
        registry = get_registry()
        self._steps_counter = registry.counter("sanitize.steps_checked")
        self._poison_counter = registry.counter("sanitize.slots_poisoned")
        self._violations = registry.counter("sanitize.violations")

        # static per-rank facts, precomputed off the hot path
        self._cross_dst: Dict[int, np.ndarray] = {
            st.rank: st.plan.step_plan.cross_links() for st in ranks
        }

        # per-step dynamic state
        self._provisional: Dict[int, np.ndarray] = {}
        self._payload_pending: Dict[int, Set[int]] = {}
        self._step = -1

    def _fail(self, message: str) -> None:
        self._violations.inc(1)
        raise SanitizeError(message)

    # -- hooks --------------------------------------------------------------
    def begin_step(self, ranks: Sequence[object], step: int) -> None:
        """Reset per-step freshness state."""
        self._step = step
        for st in ranks:
            rank = int(st.rank)
            self._payload_pending[rank] = set()
            size = st.f.shape[0] * st.f.shape[1]
            prov = self._provisional.get(rank)
            if prov is None or prov.size != size:
                self._provisional[rank] = np.zeros(size, dtype=bool)
            else:
                prov[:] = False

    def begin_worker_step(self, ranks: Sequence[object], step: int) -> None:
        """Process-tier hook: reset per-step freshness state in a forked
        worker.

        The epoch dictionaries are per-process, so each worker resets
        its own copies when it first sees a new step (the solver calls
        this from its phase-context hook).  Idempotent within a step.
        The canaries and the epoch checks then run in the worker, on the
        state it writes."""
        if step != self._step:
            self.begin_step(ranks, step)

    def on_stream(self, st: object) -> None:
        """The full-plan gather just left a placeholder at every
        halo-sourced (cross-link) destination: poison it with NaN and
        mark it provisional."""
        rank = int(st.rank)
        cross = self._cross_dst[rank]
        st.f_tmp.reshape(-1)[cross] = np.nan
        self._provisional[rank][cross] = True
        self._poison_counter.inc(cross.size)

    def on_payload(self, st: object, src: int) -> None:
        """``src``'s packed payload completed at ``st`` this step."""
        self._payload_pending[int(st.rank)].add(int(src))

    def on_scatter(self, st: object, src: int, inj: np.ndarray) -> None:
        """``st`` scatters ``src``'s payload onto ``inj``.

        Every target must still be provisional — a non-provisional
        target means a double scatter or a scatter over finalized
        interior data (write-after-write) — and the payload must have
        completed this step: a skipped completion leaves last step's
        values staged, which the scatter would write."""
        rank = int(st.rank)
        prov = self._provisional[rank]
        inj = np.asarray(inj)
        already = np.flatnonzero(~prov[inj])
        if already.size:
            self._fail(
                f"rank {rank} step {self._step}: scatter of rank {src}'s "
                f"payload overwrites {already.size} destination(s) that "
                f"are not provisional (first flat slot "
                f"{int(inj[already[0]])}); double scatter or "
                "write-after-write over finalized data"
            )
        pending = self._payload_pending[rank]
        if int(src) not in pending:
            self._fail(
                f"rank {rank} step {self._step}: scatter of rank {src}'s "
                "payload, which did not complete this step; the staged "
                "values are stale"
            )
        prov[inj] = False
        pending.discard(int(src))

    def end_frontier(self, st: object) -> None:
        """Rank ``st`` finished its frontier scatter, so
        every completed payload must be scattered and every provisional
        destination finalized."""
        rank = int(st.rank)
        pending = self._payload_pending[rank]
        if pending:
            self._fail(
                f"rank {rank} step {self._step}: payload(s) from rank(s) "
                f"{sorted(pending)} completed but were never "
                "scattered onto the frontier"
            )
        prov = self._provisional[rank]
        if prov.any():
            left = np.flatnonzero(prov)
            self._fail(
                f"rank {rank} step {self._step}: {left.size} provisional "
                f"frontier destination(s) never finalized (e.g. flat "
                f"slots {left[:4].tolist()}); their NaN canaries "
                "survive in owned state"
            )

    def end_step(self, ranks: Sequence[object], step: int) -> None:
        """End-of-step sweep: no NaN canary reached owned state."""
        for st in ranks:
            check_finite(st.f, st.num_owned, f"rank {st.rank} step {step}")
        self._steps_counter.inc(1)
