"""Calibration of the performance simulator.

The paper's measured results fold in everything its testbeds did that a
bandwidth bound cannot see: kernel quality per programming model, compiler
maturity (chipStar!), occupancy/latency-hiding, and MPI quality.  We
cannot re-measure those — they are the quantities this reproduction
substitutes — so they are encoded *once*, here, as per-(system, model,
application) calibration records, and every figure is generated from the
same mechanism.

Sources for each number are the paper's own qualitative results
(Section 9); see DESIGN.md for the full list of encoded observations.
The values are stream-collide efficiencies: the fraction of the device's
BabelStream bandwidth the app's fused kernel achieves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.errors import PerfModelError
from ..core.lattice import D3Q19

__all__ = [
    "Calibration",
    "get_calibration",
    "bytes_per_update",
    "occupancy",
    "kernel_launches_per_step",
    "OCCUPANCY_HALF_SITES",
    "BYTES_PER_UPDATE",
]

#: Bytes moved per fluid-site update.  The proxy app uses direct
#: addressing on its structured cylinder (2 x 19 doubles, 304 B); HARVEY's
#: indirect addressing additionally reads the 19-wide neighbour index
#: list (int64) per site (456 B) — the main reason the proxy outruns HARVEY.
BYTES_PER_UPDATE: Dict[str, float] = {
    "proxy": D3Q19.bytes_per_update(),
    "harvey": D3Q19.bytes_per_update() + D3Q19.q * 8,
}

#: Kernel launches per LBM iteration (collide + per-direction streaming +
#: boundary kernels); the proxy fuses more aggressively.
KERNEL_LAUNCHES_PER_STEP: Dict[str, int] = {
    "proxy": 30,
    "harvey": 44,
}

#: Occupancy half-saturation points, in fluid sites per logical GPU.
#: PVC tiles need far more resident work to hide latency (the paper's
#: Section 9.1 reading of Sunspot's strong-scaling sections); set per
#: device from the relative device sizes in Table 1.
OCCUPANCY_HALF_SITES: Dict[str, float] = {
    "V100": 1.2e5,
    "A100": 2.0e5,
    "MI250X": 2.5e5,
    "PVC": 8.0e5,
}
_DEFAULT_OCC_HALF = 2.0e5


@dataclass(frozen=True)
class Calibration:
    """Per-(system, model, app) simulator inputs.

    Attributes
    ----------
    sc_efficiency:
        Fraction of BabelStream bandwidth the stream-collide kernel
        achieves.
    launch_factor:
        Multiplier on per-launch overhead (immature compilers pay more —
        chipStar is 2x).
    comm_factor:
        Multiplier on communication time (portability layers add copies /
        packing overhead).
    aorta_factor:
        Extra multiplier on ``sc_efficiency`` for the sparse aorta
        workload (irregular access patterns hit some stacks harder).
    aorta_scale_decay:
        Exponent d: on the aorta, beyond ``aorta_decay_onset`` GPUs the
        efficiency additionally scales as
        ``(n_gpus / onset) ** -d``.  Positive d models scale-degrading
        ports; *negative* d models the MI250X's growing advantage on
        sparser per-GPU aorta domains (Section 9.1: "it is possible that
        the AMD GPU is more efficient at handling the sparser fluid
        domains"), which produces the paper's Crusher-overtakes-Polaris
        crossover at 512 GPUs.
    aorta_decay_onset:
        GPU count at which the scale term starts acting.
    """

    sc_efficiency: float
    launch_factor: float = 1.0
    comm_factor: float = 1.0
    aorta_factor: float = 1.0
    aorta_scale_decay: float = 0.0
    aorta_decay_onset: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.sc_efficiency <= 1.0:
            raise PerfModelError("sc_efficiency must be in (0, 1]")
        if self.launch_factor < 1.0 or self.comm_factor <= 0.0:
            raise PerfModelError("bad launch/comm factor")

    def effective_sc(self, workload: str, n_gpus: int) -> float:
        """Stream-collide efficiency for a workload at a GPU count."""
        eff = self.sc_efficiency
        if workload == "aorta":
            eff *= self.aorta_factor
            if (
                self.aorta_scale_decay != 0.0
                and n_gpus > self.aorta_decay_onset
            ):
                eff *= (n_gpus / self.aorta_decay_onset) ** (
                    -self.aorta_scale_decay
                )
        return min(eff, 1.0)


# (system, model, app) -> Calibration.  See DESIGN.md section 4 for the
# paper observation each entry encodes.
_TABLE: Dict[Tuple[str, str, str], Calibration] = {
    # ----- Summit (V100, native CUDA) --------------------------------------
    ("Summit", "cuda", "harvey"): Calibration(0.72),
    # HIP edges native at the lowest task count; the host-staged MPI
    # (GPU-aware unsupported, Section 7.2.2) costs it everywhere else
    ("Summit", "hip", "harvey"): Calibration(0.735, comm_factor=1.5),
    ("Summit", "kokkos-cuda", "harvey"): Calibration(0.60, launch_factor=1.3),
    # Kokkos-OpenACC consistently beats Kokkos-CUDA on Summit
    ("Summit", "kokkos-openacc", "harvey"): Calibration(
        0.66, launch_factor=1.5
    ),
    ("Summit", "cuda", "proxy"): Calibration(0.90),
    # the proxy overlaps its (host-staged) exchanges aggressively, which
    # keeps the HIP proxy on par with native CUDA — near-overlapping
    # lines in Fig. 5(a,e) despite the CPU-based message passing
    ("Summit", "hip", "proxy"): Calibration(0.89, comm_factor=0.6),
    ("Summit", "kokkos-cuda", "proxy"): Calibration(0.72, launch_factor=1.3),
    ("Summit", "kokkos-openacc", "proxy"): Calibration(
        0.80, launch_factor=1.5
    ),
    # ----- Polaris (A100, native CUDA) --------------------------------------
    ("Polaris", "cuda", "harvey"): Calibration(0.78),
    # SYCL closely matches native CUDA over the whole range
    ("Polaris", "sycl", "harvey"): Calibration(0.77, launch_factor=1.1),
    ("Polaris", "kokkos-cuda", "harvey"): Calibration(0.64, launch_factor=1.3),
    ("Polaris", "kokkos-sycl", "harvey"): Calibration(0.63, launch_factor=1.4),
    # Kokkos-OpenACC worst for HARVEY, most pronounced on the aorta
    ("Polaris", "kokkos-openacc", "harvey"): Calibration(
        0.52, launch_factor=1.5, aorta_factor=0.85
    ),
    ("Polaris", "cuda", "proxy"): Calibration(0.92),
    ("Polaris", "sycl", "proxy"): Calibration(0.91, launch_factor=1.1),
    ("Polaris", "kokkos-cuda", "proxy"): Calibration(0.75, launch_factor=1.3),
    # proxy: Kokkos-CUDA on par with Kokkos-OpenACC, Kokkos-SYCL worst
    ("Polaris", "kokkos-openacc", "proxy"): Calibration(
        0.74, launch_factor=1.5
    ),
    ("Polaris", "kokkos-sycl", "proxy"): Calibration(0.65, launch_factor=1.4),
    # ----- Crusher (MI250X, native HIP; arch efficiency notably low; the
    # GCD handles sparse per-GPU aorta domains increasingly well with
    # scale, crossing Polaris at 512 GPUs in Fig. 4) ---------------------------
    ("Crusher", "hip", "harvey"): Calibration(
        0.42, aorta_scale_decay=-0.14, aorta_decay_onset=8
    ),
    # SYCL comparable to Kokkos-HIP on the cylinder (both well below
    # native); on the aorta it starts near-native and falls behind with
    # scale (the Fig. 6(c) divergence), yet its lowest aorta efficiency
    # stays above its flat cylinder line
    ("Crusher", "sycl", "harvey"): Calibration(
        0.28, launch_factor=1.2, aorta_factor=1.45,
        aorta_scale_decay=-0.085, aorta_decay_onset=8
    ),
    ("Crusher", "kokkos-hip", "harvey"): Calibration(
        0.32, launch_factor=1.3, aorta_scale_decay=-0.14,
        aorta_decay_onset=8
    ),
    ("Crusher", "hip", "proxy"): Calibration(0.50),
    ("Crusher", "sycl", "proxy"): Calibration(0.33, launch_factor=1.2),
    ("Crusher", "kokkos-hip", "proxy"): Calibration(0.40, launch_factor=1.3),
    # ----- Sunspot (PVC, native SYCL; Kokkos-SYCL manually tuned, beats native;
    # HIP via chipStar, functional-first compiler) ------------------------------
    ("Sunspot", "sycl", "harvey"): Calibration(0.60),
    ("Sunspot", "kokkos-sycl", "harvey"): Calibration(0.64, launch_factor=1.2),
    ("Sunspot", "hip", "harvey"): Calibration(
        0.56, launch_factor=2.0, comm_factor=1.2
    ),
    ("Sunspot", "sycl", "proxy"): Calibration(0.88),
    ("Sunspot", "kokkos-sycl", "proxy"): Calibration(0.92, launch_factor=1.2),
    # chipStar proxy performs worst of all models on the platform
    ("Sunspot", "hip", "proxy"): Calibration(
        0.50, launch_factor=2.0, comm_factor=1.2
    ),
}

#: The paper's systems: a pair missing from :data:`_TABLE` on one of
#: them was not ported there.
_STUDY_SYSTEMS = frozenset(system for system, _, _ in _TABLE)

#: Fallback for machines outside the paper's four systems.
_GENERIC = {
    "harvey": Calibration(0.60),
    "proxy": Calibration(0.85),
}


def get_calibration(system: str, model_name: str, app: str) -> Calibration:
    """Look up calibration for a (system, programming model, app) triple."""
    if app not in BYTES_PER_UPDATE:
        raise PerfModelError(
            f"unknown app {app!r}; expected one of {sorted(BYTES_PER_UPDATE)}"
        )
    key = (system, model_name, app)
    if key in _TABLE:
        return _TABLE[key]
    if system in _STUDY_SYSTEMS:
        raise PerfModelError(
            f"{model_name} has no calibration on {system} "
            f"(not ported there in the study)"
        )
    return _GENERIC[app]


def bytes_per_update(app: str) -> float:
    if app not in BYTES_PER_UPDATE:
        raise PerfModelError(f"unknown app {app!r}")
    return BYTES_PER_UPDATE[app]


def kernel_launches_per_step(app: str) -> int:
    if app not in KERNEL_LAUNCHES_PER_STEP:
        raise PerfModelError(f"unknown app {app!r}")
    return KERNEL_LAUNCHES_PER_STEP[app]


def occupancy(sites_per_gpu: float, gpu_name: str) -> float:
    """Latency-hiding occupancy factor in (0, 1].

    Saturating in resident work: ``occ = p / (p + p_half)``.  Large
    devices (PVC) need more work per tile to saturate, producing the
    strong-scaling-section-end dips of Figs. 5(d,h)/6(d,h).
    """
    if sites_per_gpu <= 0:
        raise PerfModelError("sites_per_gpu must be positive")
    half = OCCUPANCY_HALF_SITES.get(gpu_name, _DEFAULT_OCC_HALF)
    return sites_per_gpu / (sites_per_gpu + half)
