"""Truncated-Fock master-equation integrator used as the ground-truth oracle.

The Hilbert space is the tensor product of per-mode number bases (cutoff
n_max) with the two-level atom as the last, fastest-varying factor.  The
evolution is the Lindblad master equation for the full-wave coupling.
Without dissipation it is unitary with a time-independent H, and
:func:`evolve` propagates it exactly in the eigenbasis of H
(:func:`evolve_spectral`).  With dissipation it is split (Strang):
rho <- D(dt/2) U D(dt/2) rho per step (:func:`evolve_strang`), with the exact
propagator U = exp(-i H dt / hbar) and the exact flow D(tau) of the atomic
dissipator.  Both factors are completely positive and trace-preserving, so
positivity and the trace hold to roundoff and the step error is second order.
The atomic jump operators act on the 2x2 atomic factor only, so on the
(field, 2, field, 2) reshape the dissipator is four block scalings
(:func:`_dissipator`): d rho_00 = r21 rho_11 - r12 rho_00 = -d rho_11, and the
coherence blocks rho_01, rho_10 decay at gamma2 = r_p + (r21 + r12)/2; its
flow D(tau) is the same four blocks in closed form (:func:`_relaxation`).

Both routes record tr(A rho) over one operator list (:func:`_recorded_operators`),
check the state at the same sampled grid points and build their trajectory
with :func:`_trajectory`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, TraceDriftError
from .initialization import AtomicDensity
from .jc import ModelParams, per_mode_amplitudes
from .physical import join_phys
from .sde import TimeGrid

DIMENSION_CAP = 4096
TRACE_TOLERANCE = 1e-6
#: grid points, roughly equidistant, at which both routes sample hermiticity,
#: purity and the minimum eigenvalue
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
    """Atomic Lindblad terms r21 D[S-] + r12 D[S+] + 2 r_p D[Sz] as four block scalings.

    The jump operators act on the 2x2 atomic factor only, so on the
    (field, 2, field, 2) reshape the populations exchange at r21 and r12 and
    both coherence blocks decay at gamma2 = r_p + (r21 + r12)/2.
    """
    f = rho.shape[0] // 2
    r = rho.reshape(f, 2, f, 2)
    out = np.empty_like(r)
    np.multiply(r[:, 1, :, 1], params.r21, out=out[:, 0, :, 0])
    np.multiply(r[:, 0, :, 0], params.r12, out=out[:, 1, :, 1])
    np.subtract(out[:, 0, :, 0], out[:, 1, :, 1], out=out[:, 0, :, 0])
    np.negative(out[:, 0, :, 0], out=out[:, 1, :, 1])
    np.multiply(r[:, 0, :, 1], -params.gamma2, out=out[:, 0, :, 1])
    np.multiply(r[:, 1, :, 0], -params.gamma2, out=out[:, 1, :, 0])
    return out.reshape(rho.shape)


def _relaxation(params: ModelParams, tau: float):
    """The exact flow D(tau) = exp(tau * dissipator), as a function that relaxes rho in place.

    On the (field, 2, field, 2) view of :func:`_dissipator` the population
    blocks exchange a * (r21 rho_11 - r12 rho_00), with
    a = (1 - exp(-Gamma tau)) / Gamma and Gamma = r12 + r21 (a = tau when
    Gamma = 0), and both coherence blocks are scaled by exp(-gamma2 tau).
    """
    rate = params.gamma1
    weight = -math.expm1(-rate * tau) / rate if rate > 0 else tau
    gain, loss = params.r21 * weight, params.r12 * weight
    decay = math.exp(-params.gamma2 * tau)

    def relax(rho: np.ndarray) -> None:
        f = rho.shape[0] // 2
        r = rho.reshape(f, 2, f, 2)
        moved = r[:, 1, :, 1] * gain
        moved -= r[:, 0, :, 0] * loss
        r[:, 0, :, 0] += moved
        r[:, 1, :, 1] -= moved
        r[:, 0, :, 1] *= decay
        r[:, 1, :, 0] *= decay

    return relax


def master_rhs(params: ModelParams, rho, space: TruncatedSpace, hamiltonian=None):
    """Right-hand side of the Lindblad master equation."""
    rho = np.asarray(rho, dtype=complex)
    ham = build_hamiltonian(params, space) if hamiltonian is None else hamiltonian
    m = ham @ rho
    m -= m.conj().T
    m *= -1j / params.hbar
    if params.dissipative:
        m += _dissipator(params, rho)
    return m


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
    coherent = per_mode_amplitudes(coherent, space.mode_count)
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
    #: "spectral" (exact propagation) or "strang" (split-step, dissipative)
    integrator: str = "strang"

    @property
    def phys(self) -> np.ndarray:
        """Recorded series in physical coordinates, one row per grid point."""
        return join_phys(self.e, self.h, self.rho21, self.rho12, self.nu)

    @property
    def max_energy_drift(self) -> float:
        """max |E(t) - E(0)| / |E(0)| over the grid; the absolute drift if E(0) = 0.

        E(t) = tr(H rho(t)).  On the spectral route this is the roundoff of the
        H quadratic form; on a dissipative (Strang) run it is the physical
        energy change caused by the dissipator.  It is not an estimate of the
        integration error on either route.
        """
        drift = float(np.abs(self.energy - self.energy[0]).max())
        return drift / abs(self.energy[0]) if self.energy[0] != 0 else drift

    @property
    def diagnostics(self) -> dict:
        """The sidecar entries: the numerical diagnostics and the integrator that ran."""
        return {
            "max_trace_error": float(self.max_trace_error),
            "max_herm_error": float(self.max_herm_error),
            "max_purity": float(self.max_purity),
            "min_eigenvalue": float(self.min_eigenvalue),
            "max_energy_drift": float(self.max_energy_drift),
            "integrator": self.integrator,
        }


def _initial(params: ModelParams, rho0, space: TruncatedSpace):
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (space.dim, space.dim):
        raise ValueError(f"rho0 must be {space.dim} x {space.dim}")
    return rho, build_hamiltonian(params, space)


def _recorded_operators(space: TruncatedSpace, ham: np.ndarray):
    """The operators A whose tr(A rho) is recorded, one at a time in column order.

    1 (x) |t><s| for rho_11, rho_22, rho_21, rho_12 (so tr(A rho) is the
    reduced atomic element [s, t]), then x_m = a_m + a_m^dagger and
    y_m = i (a_m^dagger - a_m) per mode, then H for the energy:
    5 + 2 * mode_count operators.
    """
    for s, t in ((0, 0), (1, 1), (1, 0), (0, 1)):
        flip = np.zeros((2, 2), complex)
        flip[t, s] = 1.0
        yield _embed_atom(flip, space)
    for m in range(space.mode_count):
        a = _embed_mode(destroy(space.n_max[m] + 1), space, m)
        yield a + a.conj().T
        yield 1j * (a.conj().T - a)
    yield ham


def _trace_errors(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """|tr rho - 1| = |rho_11 + rho_22 - 1| per row; TraceDriftError at the first above 1e-6."""
    trace = values[:, 0] + values[:, 1]
    err = np.abs(trace.real - 1.0) + np.abs(trace.imag)
    bad = np.flatnonzero(~(err <= TRACE_TOLERANCE))
    if bad.size:
        raise TraceDriftError(
            f"trace drift {err[bad[0]]:.3e} at t = {times[bad[0]]:.6g}; "
            "reduce the step or raise the cutoff"
        )
    return err


def _state_checks(rho: np.ndarray) -> tuple:
    """Hermiticity error, purity tr(rho^2) and lowest eigenvalue of ``rho``."""
    herm_err = float(np.abs(rho - rho.conj().T).max())
    purity = float(np.einsum("ij,ij->", rho, rho.conj()).real)
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    return herm_err, purity, low


def _eig_check_points(steps: int) -> list:
    """About ``EIG_CHECKS`` roughly equidistant grid indices after the first point."""
    every = max(1, steps // (EIG_CHECKS - 1))
    return sorted({*range(every, steps + 1, every), steps})


def _trajectory(grid: TimeGrid, values: np.ndarray, checks: list, integrator: str):
    """Trajectory from the recorded columns and the sampled :func:`_state_checks`."""
    times = grid.times
    trace_err = _trace_errors(values, times)
    herm_err, purity, low = zip(*checks)
    return ReferenceTrajectory(
        times=times,
        rho11=values[:, 0],
        rho22=values[:, 1],
        rho21=values[:, 2],
        rho12=values[:, 3],
        nu=values[:, 1] - values[:, 0],
        e=values[:, 4:-1:2],
        h=values[:, 5:-1:2],
        energy=values[:, -1].real,
        max_trace_error=float(trace_err.max()),
        max_herm_error=max(herm_err),
        max_purity=max(purity),
        min_eigenvalue=min(low),
        integrator=integrator,
    )


def evolve(
    params: ModelParams,
    rho0,
    grid: TimeGrid,
    space: TruncatedSpace,
) -> ReferenceTrajectory:
    """Evolve ``rho0`` over the grid under the master equation of ``params``.

    A dissipation-free model is propagated exactly (:func:`evolve_spectral`),
    a dissipative one by Strang splitting (:func:`evolve_strang`); the
    trajectory's ``integrator`` names the route.  Raises TraceDriftError when
    |tr rho - 1| exceeds 1e-6 at a grid point.
    """
    route = evolve_strang if params.dissipative else evolve_spectral
    return route(params, rho0, grid, space)


def evolve_strang(
    params: ModelParams,
    rho0,
    grid: TimeGrid,
    space: TruncatedSpace,
) -> ReferenceTrajectory:
    """Strang-split integration rho <- D(dt/2) U D(dt/2) rho of the master equation.

    U = V diag(exp(-i E dt / hbar)) V^dagger is formed once from H = V diag(E)
    V^dagger, so the unitary part of a step is two dense products, and the
    dissipative part is the closed-form block relaxation D(dt/2)
    (:func:`_relaxation`) before and after it.  One step is taken per grid
    interval; the error is second order in dt, and positivity and the trace
    hold to roundoff at any step.  The rows A^T of the recorded operators are
    stacked into one table, so every grid point is recorded by one product
    with vec(rho).  The trace is checked after every step (TraceDriftError
    above 1e-6); hermiticity, purity and the minimum eigenvalue are sampled at
    ``EIG_CHECKS`` roughly equidistant grid points.
    """
    rho, ham = _initial(params, rho0, space)
    rho = rho.copy()  # stepped in place; _initial may return rho0 itself
    energies, vecs = np.linalg.eigh(ham)
    unitary = (vecs * np.exp(-1j * grid.dt / params.hbar * energies)) @ vecs.conj().T
    adjoint = unitary.conj().T.copy()
    relax = _relaxation(params, 0.5 * grid.dt)
    table = np.empty((5 + 2 * space.mode_count, space.dim**2), complex)
    for j, op in enumerate(_recorded_operators(space, ham)):
        table[j] = op.T.ravel()
    values = np.empty((grid.steps + 1, len(table)), complex)
    values[0] = table @ rho.ravel()
    eig_points = set(_eig_check_points(grid.steps))
    checks = []
    times = grid.times
    rotated = np.empty_like(rho)
    for idx in range(1, grid.steps + 1):
        relax(rho)
        np.matmul(unitary, rho, out=rotated)
        np.matmul(rotated, adjoint, out=rho)
        relax(rho)
        values[idx] = table @ rho.ravel()
        _trace_errors(values[idx : idx + 1], times[idx : idx + 1])
        if idx in eig_points:
            checks.append(_state_checks(rho))
    return _trajectory(grid, values, checks, "strang")


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
    elementwise product.  The forms of all recorded operators, H included,
    are stacked into one matrix, so a block of ``TIME_BLOCK`` grid points
    costs one GEMM.  The trace is rho_11 + rho_22 at every grid point
    (TraceDriftError above 1e-6).  rho(t) itself is formed only at the
    ``EIG_CHECKS`` points where hermiticity, purity and the minimum
    eigenvalue are sampled.
    """
    if params.dissipative:
        raise ValueError("spectral propagation needs a dissipation-free model")
    rho0, ham = _initial(params, rho0, space)
    energies, vecs = np.linalg.eigh(ham)
    rho_t = vecs.conj().T @ rho0 @ vecs
    dim, n_forms = space.dim, 5 + 2 * space.mode_count
    forms = np.empty((dim, n_forms, dim), complex)
    for j, op in enumerate(_recorded_operators(space, ham)):
        forms[:, j, :] = (vecs.conj().T @ op @ vecs).T * rho_t
    forms = forms.reshape(dim, n_forms * dim)
    rates = -1j * energies / params.hbar
    offsets = grid.dt * np.arange(grid.steps + 1)

    values = np.empty((grid.steps + 1, n_forms), complex)
    for start in range(0, grid.steps + 1, TIME_BLOCK):
        phi = np.exp(np.multiply.outer(offsets[start : start + TIME_BLOCK], rates))
        quad = (phi @ forms).reshape(len(phi), n_forms, dim)
        values[start : start + len(phi)] = np.einsum("bjl,bl->bj", quad, phi.conj())

    checks = []
    for idx in _eig_check_points(grid.steps):
        phi = np.exp(offsets[idx] * rates)
        checks.append(_state_checks(vecs @ (rho_t * np.outer(phi, phi.conj())) @ vecs.conj().T))
    return _trajectory(grid, values, checks, "spectral")
