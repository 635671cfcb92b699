"""The open-source LBM proxy application (Section 3.2), as a preset.

The proxy explores HARVEY's performance-limiting aspects in a simplified
setting: a cylindrical channel of axial length ``84x`` and radius ``8x``,
body-force-driven periodic flow, nodal bounce-back on the wall, and a
symmetric slab-and-quadrant decomposition that load-balances the cylinder
perfectly.  It runs on the one shell, on every tier, as
``HarveyConfig(workload="proxy")``; this package keeps what is the
proxy's own — the values the paper fixes and the Poiseuille check its
periodic pipe admits.
"""

from __future__ import annotations

from ..geometry.cylinder import RADIUS_FACTOR
from ..lbm.bgk import viscosity_from_tau
from ..lbm.moments import poiseuille_pipe_max_velocity

__all__ = ["PROXY_GEOMETRY", "PROXY_SCHEME", "PROXY_BODY_FORCE", "poiseuille_agreement"]

#: What the paper fixes: the values of the ``"proxy"`` row of
#: :func:`repro.workloads.workload_table` (periodic ends go with them).
PROXY_GEOMETRY, PROXY_SCHEME = "cylinder", "quadrant"
#: Axial body force driving the periodic channel (lattice units).
PROXY_BODY_FORCE = 1e-6


def poiseuille_agreement(app) -> float:
    """Measured over analytic centreline velocity of a proxy run
    (``app`` is the shell on the preset; → 1 at convergence, bounce-back
    staircasing keeps it a few % low)."""
    u_center = float(app.solver.velocity()[:, 0].max())
    return u_center / poiseuille_pipe_max_velocity(
        PROXY_BODY_FORCE,
        RADIUS_FACTOR * app.config.resolution,
        viscosity_from_tau(app.config.tau),
    )
