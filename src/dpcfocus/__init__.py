"""Near-field link simulator for planar arrays of crossed dipoles.

Computes the polarized line-of-sight channel between a circular transmit
lattice and a single receive dipole, synthesizes the per-antenna optimal
beamformer plus two benchmark architectures, and drives orientation and
distance sweeps for SNR-improvement and rate studies.
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
    cross,
    dot,
    norm,
    normalize,
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
    orientation_snr,
    polarization_angle_map,
    thermal_noise_power,
)
from .experiments import (
    DistanceResult,
    DistributionStats,
    SweepConfig,
    SweepRecord,
    distance_sweep,
    ergodic_rate,
    improvement_stats,
    improvements_db,
    median_improvement_sequence,
    narrowband_check,
    orientation_sweep,
)

__all__ = [
    "SPEED_OF_LIGHT",
    "X_HAT",
    "Y_HAT",
    "Z_HAT",
    "ArrayLayout",
    "Beamformer",
    "ChannelGeometry",
    "DistanceResult",
    "DistributionStats",
    "LinkBudget",
    "PolarizationMap",
    "PolarizedChannel",
    "RxPose",
    "SnrTriple",
    "SweepConfig",
    "SweepRecord",
    "assemble_channel",
    "benchmark_weights",
    "build_circular_array",
    "cross",
    "dipole_pattern",
    "distance_sweep",
    "dot",
    "dpc_beamformer",
    "ergodic_rate",
    "evaluate_snr",
    "impinging_field_dir",
    "improvement_stats",
    "improvements_db",
    "median_improvement_sequence",
    "narrowband_check",
    "norm",
    "normalize",
    "orientation_grid",
    "orientation_snr",
    "orientation_sweep",
    "polarization_angle_map",
    "polarized_gain",
    "rx_position",
    "thermal_noise_power",
    "unpolarized_gain",
]
