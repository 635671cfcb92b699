"""The lattice Boltzmann solver: collision, streaming, boundaries,
moments, and the single-domain and distributed drivers."""

from .bgk import BGKCollision, tau_from_viscosity, viscosity_from_tau
from .boundary import PressureOutlet, VelocityInlet
from .checkpoint import load_checkpoint, save_checkpoint
from .fieldio import axial_profile, flow_rate, load_fields, save_fields
from .mrt import MRTCollision, build_moment_basis
from .trt import MAGIC_LAMBDA, TRTCollision
from .nondimensional import BLOOD, FluidProperties, UnitSystem
from .distributed import DistributedSolver, RankState
from .rankplan import RankPlan, build_rank_plans
from .moments import (
    density,
    poiseuille_pipe_max_velocity,
    poiseuille_pipe_profile,
    total_momentum,
    velocity,
)
from .sanitize import StepSanitizer, check_finite
from .solver import Solver, SolverConfig
from .stream import QPlan

__all__ = [
    "BGKCollision",
    "MRTCollision",
    "TRTCollision",
    "MAGIC_LAMBDA",
    "build_moment_basis",
    "save_checkpoint",
    "load_checkpoint",
    "save_fields",
    "load_fields",
    "flow_rate",
    "axial_profile",
    "UnitSystem",
    "FluidProperties",
    "BLOOD",
    "viscosity_from_tau",
    "tau_from_viscosity",
    "VelocityInlet",
    "PressureOutlet",
    "QPlan",
    "Solver",
    "SolverConfig",
    "DistributedSolver",
    "RankState",
    "RankPlan",
    "build_rank_plans",
    "StepSanitizer",
    "check_finite",
    "density",
    "velocity",
    "total_momentum",
    "poiseuille_pipe_profile",
    "poiseuille_pipe_max_velocity",
]
