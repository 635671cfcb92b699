#!/usr/bin/env python
"""The portability study in miniature: one algorithm, five programming
models, four machines.

Part 1 runs the *same* LBM problem through every programming-model
backend (CUDA, HIP, SYCL, Kokkos x {CUDA, HIP, SYCL, OpenACC}) and
verifies they produce identical physics — the property that makes the
paper's comparison meaningful.

Part 2 reproduces the study's headline analysis: for each system, price
every ported implementation across the piecewise-scaling schedule and
report application efficiencies (Fig. 5) plus the performance-model
prediction.
"""

import numpy as np

from repro.analysis import backend_comparison
from repro.geometry import CylinderSpec, make_cylinder
from repro.hardware import all_machines
from repro.lbm import Solver, SolverConfig
from repro.models import MODEL_NAMES, create_model


def part1_functional_portability() -> None:
    print("=" * 70)
    print("Part 1: functional portability — identical physics everywhere")
    print("=" * 70)
    grid = make_cylinder(CylinderSpec(scale=0.5))
    config = SolverConfig(
        tau=0.8, force=(1e-6, 0.0, 0.0), periodic=(True, False, False)
    )
    reference = Solver(grid, config)
    reference.step(25)
    for name in MODEL_NAMES:
        model = create_model(name)
        solver = Solver(grid, config, model=model)
        solver.step(25)
        diff = float(np.abs(solver.f - reference.f).max())
        print(
            f"  {model.display_name:16s} max |f - f_ref| = {diff:.1e}   "
            f"launches={model.launch_count:4d}  "
            f"H2D={model.device.h2d_bytes() / 1024:.0f} KiB"
        )
        assert diff == 0.0, f"{name} diverged from the reference kernels"


def part2_efficiency_study() -> None:
    print()
    print("=" * 70)
    print("Part 2: application efficiency per system (cylinder, Fig. 5)")
    print("=" * 70)
    for machine in all_machines():
        bc = backend_comparison(machine, "cylinder")
        counts = bc.gpu_counts
        shown = [c for c in counts if c in (2, 16, 128, counts[-1])]
        print(f"\n{machine.name} (native: {machine.native_model}); "
              f"GPU counts {shown}:")
        for app in ("harvey", "proxy"):
            for model, eff in bc.app_efficiency[app].items():
                vals = "  ".join(
                    f"{eff[counts.index(c)]:.2f}" for c in shown
                )
                native = "*" if model == machine.native_model else " "
                print(f"  {app:7s} {model:15s}{native} {vals}")
        best = bc.best_model("harvey", counts[-1])
        print(f"  -> best HARVEY implementation at {counts[-1]} GPUs: {best}")


def part3_distributed_staging() -> None:
    """The Summit-HIP configuration, made observable: run the same
    distributed problem GPU-aware and host-staged, under the barrier and
    the overlapped schedule, and read the staging traffic off the
    per-device transfer ledgers.  Both schedules ship the same packed
    cross-link payload, so only GPU-aware vs host-staged moves the
    figure."""
    print()
    print("=" * 70)
    print("Part 3: GPU-aware vs host-staged halo exchange (Section 7.2.2)")
    print("=" * 70)
    import dataclasses

    from repro.decomp import axis_decompose
    from repro.lbm import DistributedSolver
    from repro.models import SimulatedDevice

    grid = make_cylinder(CylinderSpec(scale=0.5))
    config = SolverConfig(
        tau=0.8, force=(1e-6, 0.0, 0.0), periodic=(True, False, False)
    )
    part = axis_decompose(grid, 4)
    results = {}
    for overlap in (False, True):
        for aware in (True, False):
            models = [
                create_model("hip", SimulatedDevice(device_id=rank))
                for rank in range(part.num_ranks)
            ]
            solver = DistributedSolver(
                part,
                dataclasses.replace(config, overlap=overlap),
                models=models,
                gpu_aware=aware,
            )
            solver.step(10)
            d2h = sum(model.device.d2h_bytes() for model in models)
            h2d = sum(model.device.h2d_bytes() for model in models)
            results[overlap, aware] = solver.gather_f()
            label = ("overlap" if overlap else "barrier") + (
                " GPU-aware" if aware else " host-staged"
            )
            print(
                f"  {label:20s}: staging D2H={d2h / 1024:8.1f} KiB  "
                f"H2D={h2d / 1024:8.1f} KiB over 10 steps"
            )
    base = results[False, True]
    assert all(np.array_equal(f, base) for f in results.values()), (
        "neither staging nor the schedule may change the physics"
    )
    print(
        "  identical physics on all four paths; staging traffic depends on "
        "GPU-awareness, not on the schedule"
    )


if __name__ == "__main__":
    part1_functional_portability()
    part2_efficiency_study()
    part3_distributed_staging()
