"""Truncated-Fock master-equation integrator used as the ground-truth oracle.

The Hilbert space is the tensor product of per-mode number bases (cutoff
n_max) with the two-level atom as the last, fastest-varying factor.  The
evolution is the Lindblad master equation for the full-wave coupling.
Without dissipation it is unitary with a time-independent H, and
:func:`evolve` propagates it exactly in the eigenbasis of H
(:func:`evolve_spectral`).  With dissipation it is integrated with classical
fixed-step RK4 (:func:`evolve_rk4`): the commutator is evaluated as
M - M^dagger with M = H rho, which preserves hermiticity exactly, and the
atomic dissipator terms reduce to elementwise operations because the
pseudospin operators act on a single 2x2 factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, TraceDriftError
from .initialization import AtomicDensity
from .jc import ModelParams
from .physical import join_phys
from .sde import TimeGrid

DIMENSION_CAP = 4096
TRACE_TOLERANCE = 1e-6
#: grid points, roughly equidistant, at which the minimum eigenvalue is checked
#: (the spectral route also samples hermiticity and purity there)
EIG_CHECKS = 17
#: grid points per phase block of the spectral route, which bounds its memory
TIME_BLOCK = 64


@dataclass(frozen=True)
class TruncatedSpace:
    """Photon cutoffs per mode; total dimension 2 * prod(n_max + 1) <= DIMENSION_CAP."""

    n_max: tuple

    def __post_init__(self):
        n_max = tuple(int(v) for v in np.atleast_1d(self.n_max))
        object.__setattr__(self, "n_max", n_max)
        if any(v < 1 for v in n_max):
            raise ValueError("each photon cutoff must be at least 1")
        if self.dim > DIMENSION_CAP:
            raise DimensionCapError(
                f"truncated dimension {self.dim} exceeds the cap {DIMENSION_CAP}"
            )

    @property
    def mode_count(self) -> int:
        return len(self.n_max)

    @property
    def field_dim(self) -> int:
        out = 1
        for v in self.n_max:
            out *= v + 1
        return out

    @property
    def dim(self) -> int:
        return 2 * self.field_dim


def destroy(levels: int) -> np.ndarray:
    """Annihilation operator on a ladder of ``levels`` number states."""
    return np.diag(np.sqrt(np.arange(1, levels)), 1).astype(complex)


_SZ = np.diag([-0.5, 0.5]).astype(complex)
_SP = np.array([[0, 0], [1, 0]], dtype=complex)  # raises lower to upper
_SM = _SP.T.conj()


def _embed_mode(op: np.ndarray, space: TruncatedSpace, mode: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m, cutoff in enumerate(space.n_max):
        out = np.kron(out, op if m == mode else np.eye(cutoff + 1, dtype=complex))
    return np.kron(out, np.eye(2, dtype=complex))


def _embed_atom(op: np.ndarray, space: TruncatedSpace) -> np.ndarray:
    return np.kron(np.eye(space.field_dim, dtype=complex), op)


def build_hamiltonian(params: ModelParams, space: TruncatedSpace) -> np.ndarray:
    """Full-wave Hamiltonian including the counterrotating coupling terms."""
    if space.mode_count != params.mode_count:
        raise ValueError("space and params disagree on the number of modes")
    ham = params.hbar * params.Omega * _embed_atom(_SZ, space)
    spin_x = _embed_atom(_SP + _SM, space)
    for m in range(space.mode_count):
        a = _embed_mode(destroy(space.n_max[m] + 1), space, m)
        ham = ham + params.hbar * params.omega[m] * (a.conj().T @ a)
        quad = a.conj().T + a
        ham = ham + params.hbar * params.gs[m] * (quad @ spin_x)
    return ham


def _dissipator(params: ModelParams, rho: np.ndarray) -> np.ndarray:
    """Atomic Lindblad terms, evaluated on the (field, 2, field, 2) reshape."""
    f = rho.shape[0] // 2
    r = rho.reshape(f, 2, f, 2)
    out = np.zeros_like(r)
    # 2 Sz rho Sz - rho/2
    if params.r_p:
        sz = np.array([-0.5, 0.5])
        out += params.r_p * (
            2.0 * sz[None, :, None, None] * sz[None, None, None, :] * r - 0.5 * r
        )
    szr_prs = None
    if params.r21 or params.r12:
        sz = np.array([-0.5, 0.5])
        szr_prs = sz[None, :, None, None] * r + r * sz[None, None, None, :]
    # S- rho S+ - (Sz rho + rho Sz + rho)/2
    if params.r21:
        hop = np.zeros_like(r)
        hop[:, 0, :, 0] = r[:, 1, :, 1]
        out += params.r21 * (hop - 0.5 * (szr_prs + r))
    # S+ rho S- + (Sz rho + rho Sz - rho)/2
    if params.r12:
        hop = np.zeros_like(r)
        hop[:, 1, :, 1] = r[:, 0, :, 0]
        out += params.r12 * (hop + 0.5 * (szr_prs - r))
    return out.reshape(rho.shape)


def master_rhs(params: ModelParams, rho, space: TruncatedSpace, hamiltonian=None):
    """Right-hand side of the Lindblad master equation."""
    rho = np.asarray(rho, dtype=complex)
    ham = build_hamiltonian(params, space) if hamiltonian is None else hamiltonian
    m = ham @ rho
    out = (-1j / params.hbar) * (m - m.conj().T)
    if params.dissipative:
        out = out + _dissipator(params, rho)
    return out


def coherent_state(alpha, levels: int) -> np.ndarray:
    """Truncated coherent-state vector, renormalized to unit norm."""
    alpha = complex(alpha)
    if alpha == 0:
        vec = np.zeros(levels, dtype=complex)
        vec[0] = 1.0
        return vec
    n = np.arange(levels)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    vec = np.exp(n * np.log(alpha) - 0.5 * log_fact - 0.5 * abs(alpha) ** 2)
    return vec / np.linalg.norm(vec)


def initial_density(
    params: ModelParams, space: TruncatedSpace, coherent, atomic: AtomicDensity
) -> np.ndarray:
    """Product state: per-mode coherent states times the atomic density."""
    coherent = np.atleast_1d(np.asarray(coherent, dtype=complex))
    if coherent.size == 1 and space.mode_count > 1:
        coherent = np.repeat(coherent, space.mode_count)
    field = np.eye(1, dtype=complex)
    for m, amp in enumerate(coherent):
        vec = coherent_state(amp, space.n_max[m] + 1)
        field = np.kron(field, np.outer(vec, vec.conj()))
    return np.kron(field, atomic.matrix())


@dataclass
class ReferenceTrajectory:
    """Observable series plus conservation diagnostics of one evolution.

    ``rho11``/``rho22`` are the diagonal of the reduced atomic state; output
    columns come from :attr:`phys`, where rho_11/rho_22 are (1 -/+ nu)/2.
    """

    times: np.ndarray
    rho11: np.ndarray
    rho22: np.ndarray
    rho21: np.ndarray
    rho12: np.ndarray
    nu: np.ndarray
    e: np.ndarray
    h: np.ndarray
    energy: np.ndarray
    max_trace_error: float
    max_herm_error: float
    max_purity: float
    min_eigenvalue: float
    #: "spectral" (exact propagation) or "rk4"
    integrator: str = "rk4"

    @property
    def phys(self) -> np.ndarray:
        """Recorded series in physical coordinates, one row per grid point."""
        return join_phys(self.e, self.h, self.rho21, self.rho12, self.nu)

    @property
    def max_energy_drift(self) -> float:
        """max |E(t) - E(0)| / |E(0)| over the grid; the absolute drift if E(0) = 0.

        E(t) = tr(H rho(t)).  On the spectral route this is the roundoff of the
        propagated eigenbasis populations; on a dissipative RK4 run it is the
        physical energy change caused by the dissipator.  It is not an estimate
        of the integration error on either route.
        """
        drift = float(np.abs(self.energy - self.energy[0]).max())
        return drift / abs(self.energy[0]) if self.energy[0] != 0 else drift


def _atomic_reduced(rho: np.ndarray) -> np.ndarray:
    f = rho.shape[0] // 2
    return np.einsum("fsft->st", rho.reshape(f, 2, f, 2))


def _initial(params: ModelParams, rho0, space: TruncatedSpace):
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (space.dim, space.dim):
        raise ValueError(f"rho0 must be {space.dim} x {space.dim}")
    return rho, build_hamiltonian(params, space)


def _trace_drift(trace_err: float, time: float) -> TraceDriftError:
    return TraceDriftError(
        f"trace drift {trace_err:.3e} at t = {time:.6g}; "
        "reduce the step or raise the cutoff"
    )


def _eig_check_points(steps: int) -> list:
    """About ``EIG_CHECKS`` roughly equidistant grid indices after the first point."""
    every = max(1, steps // (EIG_CHECKS - 1))
    return sorted({*range(every, steps + 1, every), steps})


def evolve(
    params: ModelParams,
    rho0,
    grid: TimeGrid,
    space: TruncatedSpace,
) -> ReferenceTrajectory:
    """Evolve ``rho0`` over the grid under the master equation of ``params``.

    A dissipation-free model is propagated exactly (:func:`evolve_spectral`),
    a dissipative one with fixed-step RK4 (:func:`evolve_rk4`); the
    trajectory's ``integrator`` names the route.  Raises TraceDriftError when
    |tr rho - 1| exceeds 1e-6 at a grid point.
    """
    route = evolve_rk4 if params.dissipative else evolve_spectral
    return route(params, rho0, grid, space)


def evolve_rk4(
    params: ModelParams,
    rho0,
    grid: TimeGrid,
    space: TruncatedSpace,
) -> ReferenceTrajectory:
    """Fixed-step RK4 integration of the master equation over the grid.

    One RK4 step is taken per grid interval.  Raises TraceDriftError when
    |tr rho - 1| exceeds 1e-6 (step too large or cutoff too small).  Trace,
    hermiticity and purity are monitored at every grid point, the minimum
    eigenvalue at ``EIG_CHECKS`` roughly equidistant grid points; none of
    them is enforced except the trace.
    """
    rho, ham = _initial(params, rho0, space)
    n_modes = space.mode_count
    quads = [
        _embed_mode(destroy(space.n_max[m] + 1), space, m) for m in range(n_modes)
    ]
    x_ops = [a.conj().T + a for a in quads]
    y_ops = [1j * (a.conj().T - a) for a in quads]
    n_pts = grid.steps + 1
    out = ReferenceTrajectory(
        times=grid.times,
        rho11=np.empty(n_pts, complex),
        rho22=np.empty(n_pts, complex),
        rho21=np.empty(n_pts, complex),
        rho12=np.empty(n_pts, complex),
        nu=np.empty(n_pts, complex),
        e=np.empty((n_pts, n_modes), complex),
        h=np.empty((n_pts, n_modes), complex),
        energy=np.empty(n_pts, float),
        max_trace_error=0.0,
        max_herm_error=0.0,
        max_purity=0.0,
        min_eigenvalue=np.inf,
    )
    eig_points = set(_eig_check_points(grid.steps))

    def record(idx, rho):
        atom = _atomic_reduced(rho)
        out.rho11[idx] = atom[0, 0]
        out.rho22[idx] = atom[1, 1]
        out.rho21[idx] = atom[1, 0]
        out.rho12[idx] = atom[0, 1]
        out.nu[idx] = atom[1, 1] - atom[0, 0]
        for m in range(n_modes):
            out.e[idx, m] = np.einsum("ij,ji->", x_ops[m], rho)
            out.h[idx, m] = np.einsum("ij,ji->", y_ops[m], rho)
        out.energy[idx] = np.einsum("ij,ji->", ham, rho).real
        trace_err = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
        herm_err = np.abs(rho - rho.conj().T).max()
        purity = np.einsum("ij,ij->", rho, rho.conj()).real
        out.max_trace_error = max(out.max_trace_error, trace_err)
        out.max_herm_error = max(out.max_herm_error, herm_err)
        out.max_purity = max(out.max_purity, purity)
        if trace_err > TRACE_TOLERANCE:
            raise _trace_drift(trace_err, grid.times[idx])

    def rhs(rho):
        return master_rhs(params, rho, space, hamiltonian=ham)

    record(0, rho)
    dt = grid.dt
    for idx in range(grid.steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record(idx + 1, rho)
        if idx + 1 in eig_points:
            low = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]
            out.min_eigenvalue = min(out.min_eigenvalue, float(low))
    return out


def evolve_spectral(
    params: ModelParams,
    rho0,
    grid: TimeGrid,
    space: TruncatedSpace,
) -> ReferenceTrajectory:
    """Exact propagation rho(t) = U(t) rho0 U(t)^dagger of a dissipation-free model.

    H = V diag(E) V^dagger is diagonalized once and rho0 is rotated into its
    eigenbasis, rho~ = V^dagger rho0 V.  Each recorded quantity tr(A rho(t))
    is then the quadratic form phi^T (A~^T o rho~) phi^* in the phases
    phi_k(t) = exp(-i E_k t / hbar), with A~ = V^dagger A V and o the
    elementwise product.  The forms of the reduced atom and of every mode
    quadrature are stacked into one matrix, so a block of ``TIME_BLOCK``
    grid points costs one GEMM.  The trace is rho_11 + rho_22 at every grid
    point (TraceDriftError above 1e-6).  The energy form is diagonal,
    sum_k E_k rho~_kk |phi_k|^2, so its drift is the roundoff of the
    propagated eigenbasis populations.  ``max_herm_error``, ``max_purity``
    and ``min_eigenvalue`` are sampled: rho(t) is formed only at the
    ``EIG_CHECKS`` points that RK4 checks for positivity.
    """
    if params.dissipative:
        raise ValueError("spectral propagation needs a dissipation-free model")
    rho0, ham = _initial(params, rho0, space)
    energies, vecs = np.linalg.eigh(ham)
    rho_t = vecs.conj().T @ rho0 @ vecs
    dim, n_modes = space.dim, space.mode_count
    n_forms = 4 + 2 * n_modes
    forms = np.empty((dim, n_forms, dim), complex)
    # reduced atom[s, t] = tr(A rho) with A = 1 (x) |t><s|: A~^T = V_s^T V_t^*
    rows = vecs.reshape(space.field_dim, 2, dim)
    for j, (s, t) in enumerate(((0, 0), (1, 1), (1, 0), (0, 1))):
        forms[:, j, :] = (rows[:, s, :].T @ rows[:, t, :].conj()) * rho_t
    for m in range(n_modes):
        a = vecs.conj().T @ _embed_mode(destroy(space.n_max[m] + 1), space, m) @ vecs
        forms[:, 4 + 2 * m, :] = (a + a.conj().T).T * rho_t
        forms[:, 5 + 2 * m, :] = (1j * (a.conj().T - a)).T * rho_t
    forms = forms.reshape(dim, n_forms * dim)
    weighted_energy = energies * rho_t.diagonal().real
    rates = -1j * energies / params.hbar
    offsets = grid.dt * np.arange(grid.steps + 1)

    values = np.empty((grid.steps + 1, n_forms), complex)
    energy = np.empty(grid.steps + 1)
    for start in range(0, grid.steps + 1, TIME_BLOCK):
        phi = np.exp(np.multiply.outer(offsets[start : start + TIME_BLOCK], rates))
        quad = (phi @ forms).reshape(len(phi), n_forms, dim)
        values[start : start + len(phi)] = np.einsum("bjl,bl->bj", quad, phi.conj())
        energy[start : start + len(phi)] = (phi.real**2 + phi.imag**2) @ weighted_energy

    trace = values[:, 0] + values[:, 1]
    trace_err = np.abs(trace.real - 1.0) + np.abs(trace.imag)
    if (trace_err > TRACE_TOLERANCE).any():
        idx = int(np.argmax(trace_err > TRACE_TOLERANCE))
        raise _trace_drift(trace_err[idx], grid.times[idx])
    herm_err, purity, low = 0.0, 0.0, np.inf
    for idx in _eig_check_points(grid.steps):
        phi = np.exp(offsets[idx] * rates)
        rho = vecs @ (rho_t * np.outer(phi, phi.conj())) @ vecs.conj().T
        herm_err = max(herm_err, float(np.abs(rho - rho.conj().T).max()))
        purity = max(purity, float(np.einsum("ij,ij->", rho, rho.conj()).real))
        low = min(low, float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]))
    return ReferenceTrajectory(
        times=grid.times,
        rho11=values[:, 0],
        rho22=values[:, 1],
        rho21=values[:, 2],
        rho12=values[:, 3],
        nu=values[:, 1] - values[:, 0],
        e=values[:, 4::2],
        h=values[:, 5::2],
        energy=energy,
        max_trace_error=float(trace_err.max()),
        max_herm_error=herm_err,
        max_purity=purity,
        min_eigenvalue=low,
        integrator="spectral",
    )
