"""HARVEY: the full hemodynamic application (bisection-balanced,
pulsatile, distributed) and the one run shell its proxy shares."""

from .app import HarveyApp, RunReport
from .config import HarveyConfig
from .pulsatile import PulsatileWaveform

__all__ = ["HarveyApp", "RunReport", "HarveyConfig", "PulsatileWaveform"]
