"""repro — reproduction of *Performance Evaluation of Heterogeneous GPU
Programming Frameworks for Hemodynamic Simulations* (Martin et al.,
SC-W 2023).

The package provides, bottom-up:

* :mod:`repro.core` — lattice descriptors, the Kokkos-style ``View``
  portability layer, execution-space dispatch, shared LBM kernel bodies;
* :mod:`repro.geometry` / :mod:`repro.decomp` — the cylinder and
  synthetic-aorta geometries and the block/bisection decompositions;
* :mod:`repro.lbm` / :mod:`repro.runtime` — a validated D3Q19 lattice
  Boltzmann solver, single-domain and distributed over a simulated MPI;
* :mod:`repro.models` — functional CUDA/HIP/SYCL/Kokkos/OpenACC
  programming-model backends producing identical physics;
* :mod:`repro.hardware` / :mod:`repro.microbench` — the paper's four
  systems (Table 1) with BabelStream/PingPong equivalents;
* :mod:`repro.perfmodel` / :mod:`repro.perf` — the paper's GPU
  performance model (Eqs. 1-4) and the calibrated trace-driven simulator
  behind Figs. 3-7;
* :mod:`repro.harvey` / :mod:`repro.proxy` — the one run shell, and the
  proxy app as its ``"proxy"`` workload (:mod:`repro.workloads`);
* :mod:`repro.porting` — HIPify/DPCT/Kokkos porting over a CUDA corpus
  (Tables 2-3);
* :mod:`repro.analysis` — sweep drivers and report rendering.

Quickstart::

    from repro.harvey import HarveyApp, HarveyConfig
    with HarveyApp(HarveyConfig(workload="proxy", num_ranks=4)) as app:
        print(app.run(steps=200).mflups)
"""

__version__ = "1.0.0"

from .core.errors import ReproError

__all__ = ["ReproError", "__version__"]
