import numpy as np

from dpcfocus.beamforming import fold_directions, fold_placements, folded_snrs, link_snrs
from dpcfocus.channel import PolarizedChannel


def random_channel(rng: np.random.Generator, n: int, scale: float = 1.0) -> PolarizedChannel:
    "Complex Gaussian channel pair of length n."
    h_x = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    h_y = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return PolarizedChannel(h_x=h_x, h_y=h_y)


def kernel_snrs(layout, rx_centers, directions, budget, plain=False):
    """The SNRs of the kernel's (m, 3) gains under ``budget`` for each of ``rx_centers``,
    in order, folded for ``layout``.

    The mirror and square folds of ``fold_placements`` rest on the symmetry of the
    lattice; with ``plain``, the fold by v -> -v alone takes the place of each RX's
    fold, as it holds for any layout, as an ``explicit_layout`` needs."""
    placements = fold_placements(layout, rx_centers, directions)
    if plain:
        fold = fold_directions(directions, mirror=False)
        placements = [(rx, r0, fold) for rx, r0, _ in placements]
    gains = folded_snrs(layout, placements)
    return (
        link_snrs(g, budget, layout.wavelength, r0) for (_, r0, _), g in zip(placements, gains)
    )


def kernel_snr(layout, rx_center, directions, budget, plain=False):
    "The SNR kernel's (m, 3) array for the one RX center ``rx_center``."
    (snr,) = kernel_snrs(layout, [rx_center], directions, budget, plain)
    return snr
