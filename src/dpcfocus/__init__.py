"""Near-field link simulator for planar arrays of crossed dipoles.

Computes the polarized line-of-sight channel between a circular transmit
lattice and a single receive dipole, synthesizes the per-antenna optimal
beamformer plus two benchmark architectures, and drives orientation sweeps
over RX placements for SNR-improvement and rate studies.
"""

__version__ = "0.1.0"

from .geometry import (
    SPEED_OF_LIGHT,
    X_HAT,
    Y_HAT,
    Z_HAT,
    ArrayLayout,
    RxPose,
    build_circular_array,
    orientation_classes,
    orientation_grid,
    rx_position,
)
from .channel import (
    ChannelGeometry,
    PolarizedChannel,
    assemble_channel,
    dipole_pattern,
    impinging_field_dir,
    polarized_gain,
    unpolarized_gain,
)
from .beamforming import (
    Beamformer,
    LinkBudget,
    PolarizationMap,
    SnrTriple,
    benchmark_weights,
    dpc_beamformer,
    evaluate_snr,
    polarization_angle_map,
    thermal_noise_power,
)
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
    "Beamformer",
    "ChannelGeometry",
    "DistributionStats",
    "LinkBudget",
    "PolarizationMap",
    "PolarizedChannel",
    "RxPose",
    "SnrTriple",
    "SweepConfig",
    "assemble_channel",
    "benchmark_weights",
    "build_circular_array",
    "dipole_pattern",
    "dpc_beamformer",
    "ergodic_rate",
    "evaluate_snr",
    "impinging_field_dir",
    "improvement_stats",
    "improvements_db",
    "narrowband_check",
    "orientation_classes",
    "orientation_grid",
    "placement_sweeps",
    "polarization_angle_map",
    "polarized_gain",
    "rx_position",
    "thermal_noise_power",
    "unpolarized_gain",
]
