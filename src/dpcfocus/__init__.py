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

__version__ = "0.1.0"

from .geometry import (
    SPEED_OF_LIGHT,
    X_HAT,
    Y_HAT,
    Z_HAT,
    ArrayLayout,
    build_circular_array,
    orientation_classes,
    orientation_grid,
    rx_position,
)
from .channel import ChannelGeometry, PolarizedChannel
from .beamforming import LinkBudget, thermal_noise_power
from .experiments import (
    DistributionStats,
    SweepConfig,
    ergodic_rate,
    improvement_stats,
    improvements_db,
    narrowband_check,
    placement_sweeps,
)

__all__ = [
    "SPEED_OF_LIGHT",
    "X_HAT",
    "Y_HAT",
    "Z_HAT",
    "ArrayLayout",
    "ChannelGeometry",
    "DistributionStats",
    "LinkBudget",
    "PolarizedChannel",
    "SweepConfig",
    "build_circular_array",
    "ergodic_rate",
    "improvement_stats",
    "improvements_db",
    "narrowband_check",
    "orientation_classes",
    "orientation_grid",
    "placement_sweeps",
    "rx_position",
    "thermal_noise_power",
]
