"""Near-field link simulator for planar arrays of crossed dipoles.

Computes the received SNR of a circular transmit lattice under per-antenna
polarization control (DPC) and under two benchmark architectures
(switched- and dual-polarization phased arrays), and drives orientation
sweeps over RX placements for SNR-improvement and rate studies. The sweeps
run on the channel's real per-antenna factors; ``ChannelGeometry`` builds
the complex channel itself. The complex weights and the SNR triple by
direct inner products live in ``tests/oracles.py``, the reference route the
library is checked against.
"""

import importlib

__version__ = "0.1.0"

# Each public name, keyed to its home module, is imported on first access (PEP 562),
# so ``import dpcfocus`` loads only what a name needs: no run needs ``channel``, the
# one module that imports numpy.
_HOME_OF = {
    "SPEED_OF_LIGHT": "geometry",
    "X_HAT": "channel",
    "Y_HAT": "channel",
    "Z_HAT": "channel",
    "ChannelGeometry": "channel",
    "DistributionStats": "experiments",
    "LinkBudget": "beamforming",
    "PolarizedChannel": "channel",
    "SweepConfig": "experiments",
    "build_circular_array": "geometry",
    "ergodic_rate": "experiments",
    "improvement_stats": "experiments",
    "improvements_db": "experiments",
    "narrowband_check": "experiments",
    "orientation_classes": "geometry",
    "orientation_grid": "geometry",
    "placement_sweeps": "experiments",
    "rx_position": "geometry",
    "thermal_noise_power": "beamforming",
}
__all__ = list(_HOME_OF)


def __getattr__(name):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
