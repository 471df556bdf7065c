"""A fixed numpy kernel that measures the machine's current speed.

Every measured process runs it next to the work it times, so that times can
be scaled to a reference speed (``run.speed_factor``).
"""

import time

import numpy as np


def calibrate():
    """A fixed numpy kernel shaped like the engines' work; returns its time.

    An Euler-Maruyama-like loop over a 256 x 4 complex state (transcendental
    ufuncs, per-step call overhead, writes into a ring of records) followed by
    dense 122 x 122 complex products like the reference's ``master_rhs``.
    It uses no ppcavity code, so its time tracks only the machine.
    """
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    z = 0.1 * (rng.standard_normal((256, 4)) + 1j * rng.standard_normal((256, 4)))
    record = np.empty((256, 101, 4), dtype=complex)
    mix = np.eye(4, dtype=complex)
    for k in range(600):
        u = z / 4.0
        h = -np.tanh(u)
        z = z + 1e-3 * (h * np.cosh(u) - 0.5 * np.sinh(2.0 * u)) + 1e-3 * (z @ mix)
        record[:, k % 101, :] = h / (1.0 + h * h)
    ham = rng.standard_normal((122, 122)) + 1j * rng.standard_normal((122, 122))
    rho = np.eye(122, dtype=complex) / 122
    for _ in range(300):
        m = ham @ rho
        rho = rho + 1e-6 * (m - m.conj().T)
    return time.perf_counter() - t0
