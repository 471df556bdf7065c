"""Deterministic Maxwell-Bloch solver in cavity-mode form.

This is the noise-free limit of the changed-variable SDE restricted to the
hermitian slice rho12 = conj(rho21) with real inversion and real field
quadratures.  States are flat physical vectors in the layout of
:func:`ppcavity.physical.join_phys`, as for the other engines; a vector off
the slice is refused.  The state is integrated in a real representation so
roundoff cannot push it off the physical manifold.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from .jc import ModelParams
from .physical import join_phys, split_phys
from .sde import TimeGrid

#: a ``max_bloch_violation`` above this is reported as a warning by the CLI
BLOCH_BOUND_SLACK = 1e-9


def _real_vector(params: ModelParams, phys) -> np.ndarray:
    """Pack a hermitian-slice physical vector as (eps, eta, Re rho21, Im rho21, nu).

    The real form keeps only these coordinates, so a vector off the slice is
    refused with ValueError instead of being silently projected onto it.
    """
    n = params.mode_count
    phys = np.asarray(phys, dtype=complex)
    if phys.shape != (2 * n + 3,):
        raise ValueError(
            f"need a physical vector of length {2 * n + 3} for {n} modes, got shape {phys.shape}"
        )
    eps, eta, rho21, rho12, nu = split_phys(phys, n)
    if rho12 != np.conj(rho21):
        raise ValueError("Maxwell-Bloch state needs rho12 = conj(rho21)")
    if np.any(eps.imag != 0) or np.any(eta.imag != 0) or nu.imag != 0:
        raise ValueError("Maxwell-Bloch state needs real epsilon, eta and nu")
    return np.concatenate([eps.real, eta.real, [rho21.real, rho21.imag, nu.real]])


def _real_rhs(params: ModelParams):
    """The derivative of a real-form state, a list of 2N+3 floats, as a list.

    The constants are formed once, here.  The mode sum is numpy's reduction
    of the products: a left-to-right sum from 0.0 below 8 modes, where that
    is numpy's order, and ``ndarray.sum`` itself from 8 on.
    """
    n = params.mode_count
    om, gs_array = params.omega_array.tolist(), params.gs
    gs, gs4 = gs_array.tolist(), (4.0 * gs_array).tolist()
    big_omega, gamma1 = float(params.Omega), float(params.gamma1)
    gamma2, nu0 = float(params.gamma2), float(params.nu0)

    def rhs(y):
        eps = y[:n]
        re21, im21, nu = y[2 * n :]
        if n < 8:
            drive = 0.0
            for term in map(mul, gs, eps):
                drive += term
        else:
            drive = float((gs_array * eps).sum())
        # d rho21/dt = -i Omega rho21 + i drive nu - gamma2 rho21, split in parts
        return [
            *map(mul, om, y[n : 2 * n]),
            *[-a * e - b * re21 for a, e, b in zip(om, eps, gs4)],
            big_omega * im21 - gamma2 * re21,
            -big_omega * re21 + drive * nu - gamma2 * im21,
            -4.0 * drive * im21 - gamma1 * (nu - nu0),
        ]

    return rhs


def mb_rhs(params: ModelParams, phys) -> np.ndarray:
    """Time derivative of a physical vector on the hermitian slice.

    ``phys`` is laid out as :func:`ppcavity.physical.join_phys` and must lie
    on the slice (see :func:`evolve_mb`).  The result is the changed-variable
    drift restricted to the slice; the coupling enters through the mode sum,
    which equals -(i/hbar) m21 E(x0) when the couplings track the per-photon
    field.
    """
    n = params.mode_count
    out = _real_rhs(params)(_real_vector(params, phys).tolist())
    rho21 = complex(out[2 * n], out[2 * n + 1])
    return join_phys(out[0:n], out[n : 2 * n], rho21, np.conj(rho21), out[2 * n + 2])


@dataclass
class MbTrajectory:
    times: np.ndarray
    epsilon: np.ndarray
    eta: np.ndarray
    rho21: np.ndarray
    nu: np.ndarray
    max_bloch_violation: float

    @property
    def phys(self) -> np.ndarray:
        """Recorded series in physical coordinates, one row per grid point."""
        return join_phys(self.epsilon, self.eta, self.rho21, np.conj(self.rho21), self.nu)

    @property
    def diagnostics(self) -> dict:
        """The sidecar entries: the worst Bloch-sphere bound violation."""
        return {"max_bloch_violation": float(self.max_bloch_violation)}


def evolve_mb(params: ModelParams, phys0, grid: TimeGrid) -> MbTrajectory:
    """Fixed-step RK4 integration; records the worst Bloch-bound violation.

    ``phys0`` is the initial physical vector (eps_1, eta_1, ..., eps_N, eta_N,
    rho21, rho12, nu) of :func:`ppcavity.physical.join_phys`.  It must have
    length 2N+3 and lie exactly on the hermitian slice, rho12 = conj(rho21)
    with real epsilon, eta and nu; otherwise ValueError is raised.

    Each step is classical RK4 on Python floats, in this operand order:
    k2 and k3 at y + (0.5*dt)*k, k4 at y + dt*k3, and the new state
    y + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4).  Each state is written into one
    preallocated (steps + 1, 2N + 3) array.
    """
    n = params.mode_count
    rhs = _real_rhs(params)
    vecs = np.empty((grid.steps + 1, 2 * n + 3))
    vecs[0] = _real_vector(params, phys0)
    y = vecs[0].tolist()
    dt = grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    for idx in range(1, grid.steps + 1):
        k1 = rhs(y)
        k2 = rhs([a + half * b for a, b in zip(y, k1)])
        k3 = rhs([a + half * b for a, b in zip(y, k2)])
        k4 = rhs([a + dt * b for a, b in zip(y, k3)])
        y = [
            a + sixth * (((b + 2.0 * c) + 2.0 * d) + e)
            for a, b, c, d, e in zip(y, k1, k2, k3, k4)
        ]
        vecs[idx] = y
    rho21 = np.empty(grid.steps + 1, complex)
    rho21.real, rho21.imag = vecs[:, 2 * n], vecs[:, 2 * n + 1]
    nu = vecs[:, 2 * n + 2]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed run reads inf or nan
        worst = float(((rho21.real**2 + rho21.imag**2) - (1.0 - nu**2) / 4.0).max())
    return MbTrajectory(grid.times, vecs[:, 0:n], vecs[:, n : 2 * n], rho21, nu, worst)
