"""The received SNR of three TX architectures, from channel magnitudes alone.

Three ways of driving the crossed-dipole array are compared:

* full per-antenna amplitude and phase control over both dipoles (DPC),
  which can set an arbitrary polarization state at each antenna;
* a dual-polarization array: phase-only conjugate weights on both dipole
  sets, combined digitally across two chains;
* a switched-polarization array: the same phase-only weights, but only the
  better of the two dipole sets transmits.

The propagation phase cancels under the optimal and the conjugate weights,
so ``folded_snrs`` needs only the per-antenna magnitudes |h_x,k| and |h_y,k|.
The complex weights themselves and the SNR triple by direct inner products
are the reference route of ``tests/oracles.py``, which the kernel is checked
against.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import ArrayLayout, _positive_finite, orientation_classes

BOLTZMANN = 1.380649e-23
"Boltzmann constant in J/K (exact SI value)."

NOISE_TEMPERATURE = 290.0
"Reference noise temperature T_0 in K of ``thermal_noise_power``."

HALF_WAVE_SERIES = (1.0, -0.23370055013616783, 0.019968957764836173, -0.0008945229981384011,
                    2.473727504180939e-05, -4.6476318193697227e-07, 6.318120398963926e-09,
                    -6.306190369412005e-11)
"""Coefficients h_0..h_7, lowest first, of a polynomial for the half-wave pattern's entire part.

The pattern of a half-wave dipole is sqrt(1 - c^2) * h(c^2), with
c = cos(theta) and h(x) = cos(pi/2 * sqrt(x)) / (1 - x). The Taylor
coefficients of h are the tail sums of those of cos(pi/2 * sqrt(x)); the
series is Chebyshev-economized on [0, 1] while the dropped terms stay within
2^-53 of the Taylor coefficient mass, which leaves degree 7 where the Taylor
series itself would need 9, and each coefficient is rounded once to float64.
The tests check these values bit for bit against the same steps in 60-digit
decimal arithmetic (``decimal_pattern_coefficients`` in ``tests/oracles.py``).
"""

_PATTERN_COEFFS = np.array(HALF_WAVE_SERIES)
"``HALF_WAVE_SERIES`` as the float64 array the compiled loop reads."
_PATTERN_COEFFS.setflags(write=False)

UNIT_TOL = 1e-12
"Largest | |v| - 1 | of a receive direction the SNR kernel accepts."

ANTENNA_BLOCK = 4096
"""Antennas one ``folded_snrs`` task sums at a time.

A kernel task reads the layout's row table in place and builds its block's
positions and geometry in the compiled loop, 64 antennas at a time on the
stack; what it holds in
numpy is the block's (3, m) column sums for m evaluated directions, added in
antenna order. The caller adds a placement's block sums in block order, so
this size fixes the bits of every SNR. 2048 made ``sweep --scale 0.1`` about
10% slower, as its 2837-antenna lattice then takes two blocks per placement.
"""

KERNEL_SOURCE = "tile_sums.c"
"The C source of the SNR kernel and of fig3's field factors, beside this module."

KERNEL_FLAGS = ("-O3", "-fno-math-errno", "-ffp-contract=off", "-shared", "-fPIC")
"""Flags ``cc`` builds the SNR kernel with.

Without contraction no multiply and add fuse, so every instruction set the
source is cloned for gives the same bits; without errno, ``sqrt`` vectorizes.
"""

KERNEL_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
"Directory the built SNR kernel is kept in, beside the package's byte code."


class KernelBuildError(RuntimeError):
    "Raised when the C compiler ``cc`` is missing or fails to build the SNR kernel."


def available_cpus() -> int:
    "CPUs this process may run on: its affinity mask where the platform has one."
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


MAX_WORKERS = available_cpus()
"""Most threads ``folded_snrs`` runs its (placement, antenna block) tasks on.

At 1 the tasks still run on one worker thread, never in the caller. Each
worker is first moved to its own CPU of the affinity mask and then given the
whole mask back (``_place_thread``), so two workers share no CPU on a host
that never rebalances threads. Speed-ups were measured on two CPUs only;
beyond that the scaling is untested.
"""


def thermal_noise_power(bandwidth: float) -> float:
    "k_B * T_0 * B noise floor in watts, at the reference temperature ``NOISE_TEMPERATURE``."
    if not _positive_finite(bandwidth):
        raise ValueError("bandwidth must be positive and finite")
    return BOLTZMANN * NOISE_TEMPERATURE * bandwidth


@dataclass
class LinkBudget:
    "Transmit power and receiver noise power, both in watts."

    transmit_power: float
    noise_power: float

    def __post_init__(self):
        if self.transmit_power <= 0 or self.noise_power <= 0:
            raise ValueError("transmit_power and noise_power must be positive")
        # a subnormal ratio is kept: only the rates read it, and log1p keeps their digits
        ratio = self.transmit_power / self.noise_power
        if not (math.isfinite(ratio) and ratio > 0.0):
            raise ValueError("transmit_power / noise_power must be positive and finite")


def link_snrs(gains, budget: LinkBudget, wavelength: float, r0: float) -> np.ndarray:
    """The SNRs of the budget-free ``gains`` that ``folded_snrs`` yields for a placement
    of reference range ``r0``: P/N * (lambda / (4 pi r0))^2 times each. The root of
    that factor is applied twice, so the factor itself need not be a normal float."""
    link = math.sqrt(budget.transmit_power / budget.noise_power) * wavelength / (4 * math.pi * r0)
    return np.asarray(gains) * link * link


def fold_placements(layout: ArrayLayout, rx_centers, directions) -> list:
    """Check the RX centers and fold the directions: ``(rx, r0, fold)`` per RX on ``layout``.

    ``layout`` is a lattice of ``build_circular_array``, closed under all 8
    symmetries of the square, so the fold follows from the RX alone: the
    directions fold under the mirror y -> -y for an RX with y == 0, and
    under the square's symmetries too on the z axis. Each fold is worked out
    once per call and shared by the RX centers it serves. Raises
    ``ValueError`` for an RX center that ``_rx_center`` refuses, one on the
    array plane among them, or for bad directions.
    """
    folds = {}
    placements = []
    for rx in rx_centers:
        rx, r0 = _rx_center(rx)
        mirror = bool(rx[1] == 0.0)
        square = bool(mirror and rx[0] == 0.0)
        if (mirror, square) not in folds:
            folds[mirror, square] = fold_directions(directions, mirror, square)
        placements.append((rx, r0, folds[mirror, square]))
    return placements


def _rx_center(rx) -> tuple[np.ndarray, float]:
    """The checked RX center as a float64 3-vector, and its reference range r0 = |rx_z|.

    The RX sits in front of the array, as in the paper: an RX on the array
    plane z = 0 is refused, so none sits at an antenna. Amplitudes are taken
    relative to lambda / (4 pi r0). Every TX element lies on z = 0, so r0
    bounds each TX-RX distance from below: every amplitude r0 / r is at most
    1, and no sum or square taken in the kernel overflows, however near or
    far the RX is.
    """
    rx = np.asarray(rx, dtype=float)
    if rx.shape != (3,) or not np.all(np.isfinite(rx)):
        raise ValueError("an RX center must be a finite 3-vector")
    if rx[2] == 0.0:
        raise ValueError("an RX center must lie off the array plane z = 0")
    return rx, abs(float(rx[2]))


def fold_directions(directions, mirror: bool, square: bool = False) -> _Fold:
    "Check the directions and return their ``orientation_classes``."
    v = np.asarray(directions, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] == 0:
        raise ValueError("directions must be a non-empty (m, 3) array")
    norm = np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
    if not np.all(np.abs(norm - 1.0) <= UNIT_TOL):  # also refuses NaN and inf
        raise ValueError(f"directions must be unit vectors, to within {UNIT_TOL:g}")
    first, inverse = orientation_classes(v, mirror, square)
    return _Fold(v[first], inverse)


def folded_snrs(layout: ArrayLayout, placements):
    """Iterator over the budget-free gains at each of ``placements``, in order.

    ``placements`` is ``fold_placements`` worked out for ``layout``. Each
    item is an (m, 3) array whose row i holds (DPC, dual, switched) for the
    placement's ``directions[i]``, with the channel magnitudes
    a_u,k = |h_u,k| in units of lambda / (4 pi r0):

        dpc      = (sum_k sqrt(a_x,k^2 + a_y,k^2))^2 / n
        dual     = ((sum_k a_x,k)^2 + (sum_k a_y,k)^2) / n
        switched = max(sum_k a_x,k, sum_k a_y,k)^2 / n

    ``link_snrs`` turns them into the SNRs that the test oracle
    ``evaluate_snr`` (``tests/oracles.py``) works out from the complex
    weights and ``ChannelGeometry(layout, rx).channel_for(directions[i])``;
    their ratios are the SNRs' ratios. The propagation phase cancels under
    both the DPC and the phase-only conjugate weights, so only channel
    magnitudes are needed. As r0 bounds every TX-RX distance from below,
    every amplitude scale r0 / r_k is at most 1 and no sum or square
    overflows; gains can still underflow, as for an RX on the z axis at
    v = +-z, which only its off-axis antennas reach.

    Directions that share their gains by symmetry (``orientation_classes``
    of the fold) are evaluated once and the result is copied to every
    member.

    Each task is one call of the compiled loop (``_tile_sums``) on a block
    of ``ANTENNA_BLOCK`` antennas, which returns the block's (3, m) column
    sums, added in antenna order. The (placement, block) tasks of all the
    placements form one stream, run in order on ``kernel_workers`` threads of
    ``_in_order``, each placed on its own CPU; a task runs no numpy pass and
    the loop runs without the interpreter lock, so the threads share the
    CPUs. The calling thread adds each placement's block sums in block order
    as they arrive, so a placement's array depends on ``ANTENNA_BLOCK`` but on
    neither the number of threads nor the other placements of the call, and
    repeated calls return identical arrays. An array is yielded as soon as
    its last block is summed; at most two tasks per thread are in flight, so
    the memory held grows with neither the number of blocks nor of
    placements. Abandoning the iterator cancels the queued tasks and stops
    its threads.

    ``fold_placements`` refuses bad directions and RX centers, so every input
    error is raised before any task exists.

    Raises
    ------
    KernelBuildError
        At the first item, if the SNR kernel is not built yet and ``cc``
        is missing or fails.
    """
    n = layout.n_tx
    kernel = _tile_kernel()  # built, if need be, before any task is queued
    block = ANTENNA_BLOCK

    def block_sums(task):
        rx, r0, fold, b0 = task
        return _tile_sums(kernel, layout, range(b0, min(b0 + block, n)), rx, r0,
                          fold.directions)

    # one (rx, r0, fold, first antenna) task per antenna block of every placement
    tasks = [(rx, r0, fold, b0) for rx, r0, fold in placements for b0 in range(0, n, block)]
    results = _in_order(block_sums, tasks, kernel_workers(n, placements))
    try:
        for _, _, fold in placements:
            m = fold.directions.shape[0]
            # per direction: sum_k sqrt(a_x,k^2 + a_y,k^2), sum_k a_x,k, sum_k a_y,k
            sums = np.zeros((3, m))
            for _ in range(0, n, block):
                sums += next(results)
            sums /= math.sqrt(n)
            gains = np.empty((m, 3))
            gains[:, 0] = np.square(sums[0])
            gains[:, 1] = np.square(sums[1]) + np.square(sums[2])
            gains[:, 2] = np.square(np.maximum(sums[1], sums[2]))
            yield gains[fold.inverse]
    finally:
        results.close()


class _Fold(NamedTuple):
    "The directions a placement evaluates and the member -> class map."

    directions: np.ndarray
    inverse: np.ndarray


def kernel_workers(n_tx: int, placements) -> int:
    """Threads ``folded_snrs`` runs ``placements`` on for a layout of ``n_tx`` antennas:
    one per (placement, antenna block) task, at most ``MAX_WORKERS``. Only the number
    of placements counts; each takes ceil(n_tx / ``ANTENNA_BLOCK``) tasks."""
    return min(MAX_WORKERS, len(placements) * -(-n_tx // ANTENNA_BLOCK))


def _in_order(task, args, workers: int):
    """Yield ``task(a)`` for each a of ``args`` in order, computed on ``workers`` threads.

    At most ``2 * workers`` tasks are queued or running at a time, so results
    that wait for an earlier one stay few however many tasks there are. An
    exception a task raises is raised in the caller at its item. Abandoning
    the iterator drops the queued tasks and joins the workers. Built on
    ``threading`` and ``queue.SimpleQueue`` alone: ``concurrent.futures``
    would import ``logging``, about 6 ms at the start of every stream. Each
    worker first moves to its own CPU (``_place_thread``). One worker takes
    the same path as many; ``args`` must be empty when ``workers`` is 0.
    """
    import threading
    from queue import Empty, SimpleQueue

    todo = SimpleQueue()  # (a, reply) per task, then one None per worker

    def work(i):
        _place_thread(i)
        while (job := todo.get()) is not None:
            a, reply = job
            try:
                reply.put((True, task(a)))
            except BaseException as exc:  # raised again in the caller
                reply.put((False, exc))

    threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(workers)]
    for thread in threads:
        thread.start()
    pending = deque()
    try:
        for a in args:
            reply = SimpleQueue()
            todo.put((a, reply))
            pending.append(reply)
            if len(pending) == 2 * workers:
                yield _reply(pending.popleft())
        while pending:
            yield _reply(pending.popleft())
    finally:
        try:  # drop the tasks no worker has taken yet
            while True:
                todo.get_nowait()
        except Empty:
            pass
        for _ in threads:
            todo.put(None)
        for thread in threads:
            thread.join()


def _reply(reply):
    "The result a worker put in ``reply``, once it is there; or its exception, raised."
    ok, value = reply.get()
    if not ok:
        raise value
    return value


def _place_thread(i: int) -> None:
    """Move the calling thread to CPU ``i`` (modulo their count) of its affinity mask,
    then give it back the whole mask.

    A thread starts on the CPU of the thread that made it. Where the scheduler does not
    rebalance threads between CPUs (``cpuset.sched_load_balance`` 0), workers started
    from one thread would take turns on that CPU; placed, each stays where it was put.
    Where it does rebalance, the restored mask leaves it free to move the thread. A
    platform without ``sched_setaffinity``, or a refusal, skips the placement.
    """
    try:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {sorted(mask)[i % len(mask)]})
        os.sched_setaffinity(0, mask)
    except (AttributeError, OSError):
        pass


def _tile_sums(kernel, layout: ArrayLayout, antennas: range, rx, r0: float, v) -> np.ndarray:
    """Column sums of one antenna block, a (3, m) array.

    Per direction of ``v``, the array holds the sums over the antennas
    ``antennas`` of ``layout`` (a range of its antenna indices) of
    sqrt(|h_x|^2 + |h_y|^2), |h_x| and |h_y| in units of lambda / (4 pi r0)
    for an RX at ``rx``, added in antenna order by the ``tile_sums`` of
    ``kernel`` (``_tile_kernel``), with the half-wave pattern series
    ``_PATTERN_COEFFS``. The loop builds each antenna's position from the
    layout's row table, then its unit displacement p and amplitude scales
    (s_x, s_y), and takes |h_u| = |s_u w_u| |w| h(c^2) with c = p . v and
    w = v - c p; the operands are read in place. No admitted operand makes
    the loop overflow, divide by zero or form a NaN: ``_rx_center`` and
    ``fold_directions`` refuse non-finite operands and an RX on z = 0, and
    r0 <= r bounds every term by 1.
    """
    rx, v = (np.ascontiguousarray(a, dtype=float) for a in (rx, v))
    m = v.shape[0]
    # the loop reads and writes exactly these: a run of the layout's antennas, and shapes
    in_layout = antennas.step == 1 and 0 <= antennas.start < antennas.stop <= layout.n_tx
    if not in_layout or rx.shape != (3,) or v.shape != (m, 3):
        raise ValueError("SNR kernel operands of mismatched shapes")
    out = np.empty((3, m))
    kernel.tile_sums(*_row_table(layout), antennas.start, len(antennas), rx.ctypes.data, r0,
                     v.ctypes.data, _PATTERN_COEFFS.ctypes.data, _PATTERN_COEFFS.size, m,
                     out.ctypes.data)
    return out


def _row_table(layout: ArrayLayout) -> tuple:
    """The compiled loop's first five arguments: pointers to the arrays of ``layout.rows``
    and its run count. ``build_circular_array``, which makes every layout, makes them
    contiguous float64 and int64 with every run inside ``x_table``."""
    rows = layout.rows
    return (*(a.ctypes.data for a in rows), rows.y.size)


_kernel = None


def _tile_kernel():
    "The compiled kernel library, loaded from ``KERNEL_CACHE`` on first use."
    global _kernel
    if _kernel is None:
        _kernel = _load_kernel(KERNEL_CACHE)
    return _kernel


def _load_kernel(cache: str):
    """Load the SNR kernel from ``cache``, building it there first if it is not there.

    The library's name holds a CRC-32 of the source, the flags and the
    machine, so an edited source never loads a stale build. It is compiled
    under a temporary name and renamed into place, so a concurrent run never
    loads a partial file; once it is in place, every other
    ``tile_sums-*.so`` in ``cache``, a build of an earlier source or flags,
    is removed. If ``cache`` cannot be written, the library is built in a
    private temporary directory, which is removed once it is loaded.
    ``ctypes.CDLL`` functions release the interpreter lock.
    """
    import platform
    import tempfile
    import zlib

    source = os.path.join(os.path.dirname(__file__), KERNEL_SOURCE)
    with open(source, "rb") as handle:
        key = zlib.crc32(handle.read())
    key = zlib.crc32(" ".join((*KERNEL_FLAGS, platform.machine())).encode(), key)
    name = f"tile_sums-{key:08x}.so"
    path = os.path.join(cache, name)
    if not os.path.isfile(path):
        try:
            os.makedirs(cache, exist_ok=True)
            fd, partial = tempfile.mkstemp(suffix=".so", dir=cache)
        except OSError:
            with tempfile.TemporaryDirectory() as private:
                path = os.path.join(private, name)
                _compile(source, path)
                return _open(path)
        os.close(fd)
        try:
            _compile(source, partial)
            os.replace(partial, path)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
        for other in os.listdir(cache):
            if other.startswith("tile_sums-") and other.endswith(".so") and other != name:
                try:
                    os.unlink(os.path.join(cache, other))
                except OSError:  # already removed by a concurrent build
                    pass
    return _open(path)


def _compile(source: str, target: str) -> None:
    "Build the shared library ``target`` from ``source`` with ``cc``, or raise KernelBuildError."
    import subprocess

    command = ["cc", *KERNEL_FLAGS, "-o", target, source, "-lm"]
    try:
        subprocess.run(command, check=True, capture_output=True, text=True)
    except FileNotFoundError:
        raise KernelBuildError("no C compiler 'cc' was found; the SNR kernel needs one") from None
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.splitlines() or ["no message"]
        first = next((line for line in lines if "error" in line), lines[0])
        raise KernelBuildError(f"'cc' exited with status {exc.returncode}: {first}") from None


def _open(path: str):
    """The shared library at ``path``, its ``tile_sums`` typed for ``_tile_sums`` and its
    ``field_z`` for ``polarization_angles``."""
    import ctypes

    pointer, real, count = ctypes.c_void_p, ctypes.c_double, ctypes.c_long
    try:
        library = ctypes.CDLL(path)
        tile_sums, field_z = library.tile_sums, library.field_z
    except (OSError, AttributeError) as exc:
        raise KernelBuildError(f"cannot load the SNR kernel from {path}: {exc}") from None
    table = (pointer, pointer, pointer, pointer, count)  # a layout's rows
    tile_sums.argtypes = (*table, count, count, pointer, real, pointer, pointer, count, count,
                          pointer)
    field_z.argtypes = (*table, pointer, real, pointer, count, pointer)
    tile_sums.restype = field_z.restype = None
    return library


def polarization_angles(layout: ArrayLayout, rx) -> np.ndarray:
    """Polarization axis of each antenna's DPC weights, in radians, for an RX dipole along z.

    The same angles as the test oracle's ``polarization_angle_map(
    dpc_beamformer(ChannelGeometry(layout, rx).channel_for(Z_HAT)))``
    (``tests/oracles.py``), taken from the kernel's real factors: the z
    component of the field vector e_u of the TX dipole along u is
    a_u = p_z * (-(r0 / r) h(p_u^2) p_u), with p the unit displacement to the
    RX and r its length. h_u = K a_u for a complex K shared by both dipoles
    of an antenna, so the weight pair's relative phasor is |K|^2 a_x a_y,
    real, and the axis is atan2(a_x a_y, a_x^2) in (-pi/2, pi/2]. As there,
    an antenna with a_x == 0 radiates along y (pi/2) unless a_y == 0 too,
    when it puts its power on the x dipole (0). a_x and a_y of the whole
    layout come from one call of the compiled ``field_z``, which reads the
    row table and builds the geometry as the SNR kernel's loop does, in the
    calling thread.

    Raises ``ValueError`` if ``rx`` is not a finite 3-vector or lies on the
    array plane z = 0 (``_rx_center``), and ``KernelBuildError`` if the
    kernel is not built yet and ``cc`` is missing or fails.
    """
    rx, r0 = _rx_center(rx)
    rx = np.ascontiguousarray(rx)
    a = np.empty((2, layout.n_tx))
    _tile_kernel().field_z(*_row_table(layout), rx.ctypes.data, r0, _PATTERN_COEFFS.ctypes.data,
                           _PATTERN_COEFFS.size, a.ctypes.data)
    a_x, a_y = a
    angles = np.arctan2(a_x * a_y, np.square(a_x))
    angles[(a_x == 0.0) & (a_y != 0.0)] = math.pi / 2.0
    angles += 0.0  # -0.0 -> +0.0
    return angles
