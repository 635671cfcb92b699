#!/usr/bin/env python
"""Quickstart: run the LBM proxy app and validate its physics.

The proxy application (paper Section 3.2) solves body-force-driven flow
in a cylindrical channel of axial length 84x and radius 8x; it is the
``"proxy"`` workload of the one run shell, ``HarveyApp``.  This script
runs it distributed over 4 simulated MPI ranks, checks mass conservation
and the analytic Poiseuille profile, and reports MFLUPS — the paper's
performance unit — both measured on this host and projected on the four
supercomputers of the study.
"""

import numpy as np

from repro.geometry.cylinder import RADIUS_FACTOR
from repro.hardware import all_machines
from repro.harvey import HarveyApp, HarveyConfig
from repro.proxy import poiseuille_agreement


def main() -> None:
    config = HarveyConfig(
        workload="proxy", resolution=1.0, num_ranks=4, tau=0.9
    )
    app = HarveyApp(config)
    print(f"geometry: {app.grid.summary()}")
    print(f"decomposition: {app.partition.summary()}")

    report = app.run(steps=400)
    print(f"\nran {report.steps} steps over {report.fluid_nodes} fluid nodes")
    print(f"  host throughput      : {report.mflups:.2f} MFLUPS")
    print(f"  mass drift           : {report.mass_drift:.2e}")
    print(
        f"  max velocity         : {report.max_velocity:.3e} "
        f"(Poiseuille agreement {poiseuille_agreement(app):.2f})"
    )

    # velocity profile across the cylinder axis midpoint
    u = app.solver.velocity()
    coords = app.solver.coords
    mid = app.grid.shape[0] // 2
    on_slice = coords[:, 0] == mid
    cy = (app.grid.shape[1] - 1) / 2.0
    r = np.abs(coords[on_slice, 1] - cy)
    ux = u[on_slice, 0]
    print("\nradial profile at the axial midpoint (y-axis cut):")
    for radius in range(0, int(RADIUS_FACTOR * config.resolution) + 1, 2):
        sel = np.abs(r - radius) < 0.5
        if sel.any():
            print(f"  r={radius:2d}  u_x={ux[sel].mean():.3e}")

    print("\nprojected performance at this problem size on 16 GPUs:")
    for machine in all_machines():
        cost = app.performance_on(machine, n_gpus=16, resolution=12.0)
        print(
            f"  {machine.name:8s} ({machine.native_model:4s}): "
            f"{cost.mflups:10.0f} MFLUPS  "
            f"(comm {100 * cost.composition()['communication']:.1f}%)"
        )


if __name__ == "__main__":
    main()
