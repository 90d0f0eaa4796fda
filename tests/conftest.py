import numpy as np

from dpcfocus.channel import PolarizedChannel


def random_channel(rng: np.random.Generator, n: int, scale: float = 1.0) -> PolarizedChannel:
    "Complex Gaussian channel pair of length n."
    h_x = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    h_y = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return PolarizedChannel(h_x=h_x, h_y=h_y)
