import numpy as np

from dpcfocus.beamforming import fold_placements, folded_snrs, link_snrs
from dpcfocus.channel import PolarizedChannel


def random_channel(rng: np.random.Generator, n: int, scale: float = 1.0) -> PolarizedChannel:
    "Complex Gaussian channel pair of length n."
    h_x = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    h_y = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return PolarizedChannel(h_x=h_x, h_y=h_y)


def kernel_snrs(layout, rx_centers, directions, budget):
    """The SNRs of the kernel's (m, 3) gains under ``budget`` for each of ``rx_centers``,
    in order, folded for ``layout``."""
    placements = fold_placements(layout, rx_centers, directions)
    gains = folded_snrs(layout, placements)
    return (
        link_snrs(g, budget, layout.wavelength, r0) for (_, r0, _), g in zip(placements, gains)
    )


def kernel_snr(layout, rx_center, directions, budget):
    "The SNR kernel's (m, 3) array for the one RX center ``rx_center``."
    (snr,) = kernel_snrs(layout, [rx_center], directions, budget)
    return snr
