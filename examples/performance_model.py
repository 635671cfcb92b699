#!/usr/bin/env python
"""The GPU performance model, end to end (paper Section 6).

Walks through the model's ingredients on each system:

1. measure device bandwidth with the (simulated) BabelStream;
2. characterise link latency/bandwidth with the (simulated) PingPong;
3. assemble Eq. 1-4 predictions across the piecewise-scaling schedule;
4. compare against the calibrated simulator's "measured" results and
   report architectural efficiencies — showing where and why the bound
   is loose (occupancy at strong-scaling section ends, real halo shapes
   vs. the idealised cube).
"""

from repro.hardware import all_machines
from repro.microbench import run_babelstream, run_pingpong
from repro.perf import price_run, trace_for
from repro.perf.calibrate import bytes_per_update
from repro.perfmodel import cylinder_schedule, face_count, predict_iteration


def main() -> None:
    print("step 1+2: microbenchmark inputs")
    for machine in all_machines():
        stream = run_babelstream(machine.node.gpu)
        intra = run_pingpong(machine, 0, 1, num_ranks=2)
        per_node = machine.logical_gpus_per_node
        inter = run_pingpong(
            machine, 0, per_node, num_ranks=2 * per_node
        )
        print(
            f"  {machine.name:8s} BabelStream={stream.measured_bandwidth_tbs:.3f} TB/s  "
            f"intra-pair latency={intra.zero_size_latency_s * 1e6:.1f} us  "
            f"inter-node latency={inter.zero_size_latency_s * 1e6:.1f} us  "
            f"inter-node BW={inter.asymptotic_bandwidth_gbs:.1f} GB/s"
        )

    print("\nstep 3: Eq. 4 face counts w = 2*min(log2(n), 6):")
    for n in (2, 8, 64, 1024):
        print(f"  n_gpus={n:5d} -> w={face_count(n):.0f} events")

    print("\nstep 4: prediction vs simulated measurement (cylinder, native):")
    sched = cylinder_schedule()
    for machine in all_machines():
        rows = []
        for point in sched.points:
            if machine.name == "Sunspot" and point.n_gpus > 256:
                continue
            trace = trace_for("cylinder", "harvey", point.size, point.n_gpus)
            predicted = predict_iteration(
                machine,
                trace.total_fluid,
                point.n_gpus,
                bytes_per_update=bytes_per_update("harvey"),
            )
            measured = price_run(
                trace, machine, machine.native_model, "harvey"
            )
            rows.append(
                (point.n_gpus, measured.mflups, predicted.mflups,
                 measured.mflups / predicted.mflups)
            )
        print(f"\n  {machine.name} ({machine.native_model}):")
        print("    GPUs   measured   predicted   arch.eff")
        for n, meas, pred, eff in rows:
            print(f"    {n:5d} {meas:10.0f} {pred:11.0f}   {eff:6.2f}")


if __name__ == "__main__":
    main()
