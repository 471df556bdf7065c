"""Deterministic Maxwell-Bloch solver in cavity-mode form.

This is the noise-free limit of the changed-variable SDE restricted to the
hermitian slice rho12 = conj(rho21) with real inversion and real field
quadratures.  The state is integrated in a real representation so roundoff
cannot push it off the physical manifold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .jc import ModelParams
from .physical import join_phys
from .sde import TimeGrid, rk4_states

BLOCH_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class MbState:
    """Hermitian-slice state: real quadratures, one coherence, real inversion."""

    epsilon: tuple
    eta: tuple
    rho21: complex
    nu: float

    def __post_init__(self):
        object.__setattr__(
            self, "epsilon", tuple(float(v) for v in np.atleast_1d(self.epsilon))
        )
        object.__setattr__(
            self, "eta", tuple(float(v) for v in np.atleast_1d(self.eta))
        )
        if len(self.epsilon) != len(self.eta):
            raise ValueError("epsilon and eta must have one entry per mode")

    def to_real_vector(self) -> np.ndarray:
        n = len(self.epsilon)
        out = np.empty(2 * n + 3)
        out[0:n] = self.epsilon
        out[n : 2 * n] = self.eta
        out[2 * n] = self.rho21.real
        out[2 * n + 1] = self.rho21.imag
        out[2 * n + 2] = self.nu
        return out

    @classmethod
    def from_real_vector(cls, vec) -> "MbState":
        vec = np.asarray(vec, dtype=float)
        n = (vec.shape[-1] - 3) // 2
        return cls(
            epsilon=tuple(vec[0:n]),
            eta=tuple(vec[n : 2 * n]),
            rho21=complex(vec[2 * n], vec[2 * n + 1]),
            nu=float(vec[2 * n + 2]),
        )

    def to_phys_vector(self) -> np.ndarray:
        """Embed into the complex physical-coordinate layout."""
        return join_phys(self.epsilon, self.eta, self.rho21, np.conj(self.rho21), self.nu)


def _rhs_real(params: ModelParams, vec: np.ndarray) -> np.ndarray:
    n = params.mode_count
    om = params.omega_array
    gs = params.gs
    eps = vec[0:n]
    eta = vec[n : 2 * n]
    re21 = vec[2 * n]
    im21 = vec[2 * n + 1]
    nu = vec[2 * n + 2]
    drive = float((gs * eps).sum())
    out = np.empty_like(vec)
    out[0:n] = om * eta
    out[n : 2 * n] = -om * eps - 4.0 * gs * re21
    # d rho21/dt = -i Omega rho21 + i drive nu - gamma2 rho21, split in parts
    out[2 * n] = params.Omega * im21 - params.gamma2 * re21
    out[2 * n + 1] = -params.Omega * re21 + drive * nu - params.gamma2 * im21
    out[2 * n + 2] = -4.0 * drive * im21 - params.gamma1 * (nu - params.nu0)
    return out


def mb_rhs(params: ModelParams, state: MbState) -> MbState:
    """Time derivative of the Maxwell-Bloch state.

    Identical to the changed-variable drift restricted to the hermitian
    slice; the coupling enters through the mode sum, which equals
    -(i/hbar) m21 E(x0) when the couplings track the per-photon field.
    """
    return MbState.from_real_vector(_rhs_real(params, state.to_real_vector()))


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


def evolve_mb(params: ModelParams, state0: MbState, grid: TimeGrid) -> MbTrajectory:
    """Fixed-step RK4 integration; warns once if the Bloch bound is violated."""
    n = params.mode_count
    vecs = np.empty((grid.steps + 1, 2 * n + 3))
    vecs[0] = vec0 = state0.to_real_vector()
    for idx, vec in enumerate(rk4_states(partial(_rhs_real, params), vec0, grid), start=1):
        vecs[idx] = vec
    rho21 = np.empty(grid.steps + 1, complex)
    rho21.real, rho21.imag = vecs[:, 2 * n], vecs[:, 2 * n + 1]
    nu = vecs[:, 2 * n + 2]
    worst = float(((rho21.real**2 + rho21.imag**2) - (1.0 - nu**2) / 4.0).max())
    if worst > BLOCH_BOUND_SLACK:
        warnings.warn(
            f"Bloch-sphere bound violated by {worst:.3e} during the run",
            RuntimeWarning,
            stacklevel=2,
        )
    return MbTrajectory(grid.times, vecs[:, 0:n], vecs[:, n : 2 * n], rho21, nu, worst)
