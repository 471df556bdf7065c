"""Truncated-Fock master-equation integrator used as the ground-truth oracle.

The Hilbert space is the tensor product of per-mode number bases (cutoff
n_max) with the two-level atom as the last, fastest-varying factor, and the
evolution is the Lindblad master equation of the full-wave coupling.
:func:`evolve` picks the route: a dissipation-free model, unitary with a
time-independent H, is propagated exactly (:func:`evolve_spectral`), a
dissipative one by the parity split step (:func:`evolve_strang`).  Both
hold the state in parity order (:func:`_sector_view`), record tr(A rho) over
:func:`_recorded_operators` and build their trajectory with
:func:`_trajectory`.  The split step checks the state it steps at sampled
grid points; the exact route checks once the state it holds, of which
every rho(t) is a unitary similarity.
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
#: grid points, roughly equidistant, at which the split-step route samples
#: hermiticity, purity and the minimum eigenvalue
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
        return math.prod(v + 1 for v in self.n_max)

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


def _parity_order(space: TruncatedSpace) -> np.ndarray:
    """Basis indices in parity order: sector e, then sector o, each in field order.

    Sector e holds, for each field state f, the atomic level n_f mod 2 (n_f
    its photon number), so the parity (-1)^(N + S+S-) is even there; sector
    o holds the other level.  Each sector has ``field_dim`` states, and the
    atom flip 1 (x) (S+ + S-) swaps the two halves (:func:`_flip`).
    """
    photons = np.indices(tuple(v + 1 for v in space.n_max)).sum(axis=0).ravel()
    field = 2 * np.arange(space.field_dim)
    level = photons % 2
    return np.concatenate([field + level, field + 1 - level])


def _sectors(m: np.ndarray) -> np.ndarray:
    """The (..., 2, field, 2, field) sector view of a stack of parity-ordered matrices."""
    half = m.shape[-1] // 2
    return m.reshape(m.shape[:-2] + (2, half, 2, half))


def _sector_view(ham: np.ndarray, space: TruncatedSpace):
    """The parity-order index of the space and the sector view of H in it.

    ValueError if H has an entry between the two sectors, which both routes
    need it not to have.
    """
    parity = _parity_order(space)
    order = np.ix_(parity, parity)
    ham_sectors = _sectors(ham[order])
    if np.any(ham_sectors[0, :, 1]) or np.any(ham_sectors[1, :, 0]):
        raise ValueError(
            "the Hamiltonian couples the two parity sectors: it does not conserve "
            "(-1)^(N + S+S-), which the reference needs"
        )
    return order, ham_sectors


def _flip(m: np.ndarray) -> np.ndarray:
    """X m X for the atom flip X, which swaps the two sectors, as a sector view."""
    return _sectors(m)[..., ::-1, :, ::-1, :]


class _Relaxation:
    """The exact flow D(tau) = exp(tau * dissipator) on parity-ordered matrices.

    D(tau) rho = keep o rho + take o X rho X, with o the elementwise product
    and X the atom flip (:func:`_flip`).  An element whose two indices share
    their atomic level is a population element: level 0 keeps 1 - b r12 and
    takes b r21 from its flipped partner, level 1 keeps 1 - b r21 and takes
    b r12, with b = (1 - exp(-Gamma tau)) / Gamma and Gamma = r12 + r21
    (b = tau when Gamma = 0).  Every other element is a coherence, scaled by
    exp(-gamma2 tau).  Both coefficient matrices are symmetric.
    """

    def __init__(self, params: ModelParams, tau: float, space: TruncatedSpace):
        rate = params.gamma1
        weight = -math.expm1(-rate * tau) / rate if rate > 0 else tau
        level = _parity_order(space) % 2
        # 0 and 2: a population element of level 0 or 1; 1: a coherence
        pair = level[:, None] + level[None, :]
        decay = math.exp(-params.gamma2 * tau)
        keep = np.array([1.0 - params.r12 * weight, decay, 1.0 - params.r21 * weight])
        take = np.array([params.r21 * weight, 0.0, params.r12 * weight])
        self.keep = keep[pair].astype(complex)
        self.take = take[pair].astype(complex)

    def __call__(self, rho: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Relax ``rho`` in place, through ``work`` of its shape; returns ``rho``."""
        np.multiply(_flip(rho), _sectors(self.take), out=_sectors(work))
        rho *= self.keep
        rho += work
        return rho

    def adjoint(self, ops: np.ndarray) -> np.ndarray:
        """The adjoint D(tau)^dagger(A) = keep o A + X (take o A) X of a stack (..., dim, dim).

        tr(A D(tau) rho) = tr(D(tau)^dagger(A) rho).  The map commutes with
        the transpose, so ``ops`` may hold the transposes of the operators.
        """
        out = self.keep * ops
        sectors = _sectors(out)
        sectors += _flip(self.take * ops)
        return out


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
    #: "strang" only: the largest entry of U between the parity sectors, which the step drops
    max_parity_leak: float | None = None

    @property
    def phys(self) -> np.ndarray:
        """Recorded series in physical coordinates, one row per grid point."""
        return join_phys(self.e, self.h, self.rho21, self.rho12, self.nu)

    @property
    def max_energy_drift(self) -> float:
        """max |E(t) - E(0)| / |E(0)| over the grid (the absolute drift if E(0) =
        0), E(t) = tr(H rho(t)): roundoff on the spectral route, the
        dissipator's physical energy change on a Strang run; on neither route
        an estimate of the integration error."""
        drift = float(np.abs(self.energy - self.energy[0]).max())
        return drift / abs(self.energy[0]) if self.energy[0] != 0 else drift

    @property
    def diagnostics(self) -> dict:
        """The sidecar entries: the numerical diagnostics and the integrator that ran."""
        out = {
            "max_trace_error": float(self.max_trace_error),
            "max_herm_error": float(self.max_herm_error),
            "max_purity": float(self.max_purity),
            "min_eigenvalue": float(self.min_eigenvalue),
            "max_energy_drift": float(self.max_energy_drift),
            "integrator": self.integrator,
        }
        if self.max_parity_leak is not None:
            out["max_parity_leak"] = float(self.max_parity_leak)
        return out


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


def _trajectory(
    grid: TimeGrid, values: np.ndarray, checks: list, integrator: str, max_parity_leak=None
):
    """Trajectory from the recorded columns and the :func:`_state_checks` of
    the route's checked states: the largest hermiticity error and purity and
    the lowest eigenvalue over them."""
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
        max_parity_leak=max_parity_leak,
    )


def evolve(
    params: ModelParams, rho0, grid: TimeGrid, space: TruncatedSpace
) -> ReferenceTrajectory:
    """Evolve ``rho0`` over the grid under the master equation of ``params`` by
    the route of the module docstring, which the trajectory's ``integrator``
    names; TraceDriftError when |tr rho - 1| exceeds 1e-6 at a grid point."""
    route = evolve_strang if params.dissipative else evolve_spectral
    return route(params, rho0, grid, space)


def evolve_strang(
    params: ModelParams, rho0, grid: TimeGrid, space: TruncatedSpace
) -> ReferenceTrajectory:
    """Strang-split integration rho <- D(dt/2) U D(dt/2) rho of the master equation.

    U = exp(-i H dt / hbar) and the flow D(tau) of the atomic dissipator are
    exact, completely positive and trace-preserving, so positivity and the
    trace hold to roundoff and the step error is second order.  The
    full-wave coupling conserves the parity (-1)^(N + S+S-), the Z2 symmetry
    of the Rabi model, so the state is held in parity order, where H has no
    entry between the two sectors (:func:`_sector_view`).  U = V diag(exp(-i
    E dt / hbar)) V^dagger is formed once from the one dense H = V diag(E)
    V^dagger and kept as its two diagonal field_dim x field_dim blocks, so
    the unitary part of a step is four half-size products; the largest
    entry of U it drops is the trajectory's ``max_parity_leak`` (roundoff).
    Adjacent half-step flows fuse, D(dt/2) D(dt/2) = D(dt): the run steps
    sigma <- U D(dt) sigma (D(dt/2) on the first step), with the closed-form
    flows of :class:`_Relaxation`, and rho = D(dt/2) sigma at every grid
    point.  The rows of the recording table are the transposes of
    D(dt/2)^dagger(A), so each grid point is recorded as tr(A rho) by one
    product with vec(sigma).
    The trace is checked after every step (TraceDriftError above 1e-6);
    hermiticity, purity and the minimum eigenvalue are sampled on
    D(dt/2) sigma, formed on a copy at the ``EIG_CHECKS`` points.
    """
    rho, ham = _initial(params, rho0, space)
    order, _ = _sector_view(ham, space)
    f = space.field_dim
    # blocks of the one dense U: an eigh per sector moves the columns of the
    # two-mode lossy test model by 3.8e-13 against it, the dense blocks by 3.9e-14
    energies, vecs = np.linalg.eigh(ham)
    unitary = (vecs * np.exp(-1j * grid.dt / params.hbar * energies)) @ vecs.conj().T
    unitary = _sectors(unitary[order])
    leak = max(np.abs(unitary[0, :, 1]).max(), np.abs(unitary[1, :, 0]).max())
    blocks = np.stack([unitary[0, :, 0], unitary[1, :, 1]])
    adjoints = blocks.conj().transpose(0, 2, 1).copy()
    relax, half = _Relaxation(params, grid.dt, space), _Relaxation(params, 0.5 * grid.dt, space)
    table = np.stack([op[order].T for op in _recorded_operators(space, ham)])
    sigma = rho[order]
    values = np.empty((grid.steps + 1, len(table)), complex)
    values[0] = table.reshape(len(table), -1) @ sigma.ravel()
    table = half.adjoint(table).reshape(len(table), -1)
    eig_points = set(_eig_check_points(grid.steps))
    checks = []
    times = grid.times
    work = np.empty_like(sigma)
    # row halves (sectors) of the products, and the column halves as a (2, dim, field) view
    rows, work_rows = sigma.reshape(2, f, -1), work.reshape(2, f, -1)
    cols, work_cols = (m.reshape(-1, 2, f).transpose(1, 0, 2) for m in (sigma, work))
    half(sigma, work)
    for idx in range(1, grid.steps + 1):
        np.matmul(blocks, rows, out=work_rows)
        np.matmul(work_cols, adjoints, out=cols)
        values[idx] = table @ sigma.ravel()
        trace = values[idx, 0] + values[idx, 1]
        if not abs(trace.real - 1.0) + abs(trace.imag) <= TRACE_TOLERANCE:
            _trace_errors(values[idx : idx + 1], times[idx : idx + 1])
        if idx in eig_points:
            checks.append(_state_checks(half(sigma.copy(), work)))
        relax(sigma, work)
    return _trajectory(grid, values, checks, "strang", max_parity_leak=leak)


def evolve_spectral(
    params: ModelParams, rho0, grid: TimeGrid, space: TruncatedSpace
) -> ReferenceTrajectory:
    """Exact propagation rho(t) = U(t) rho0 U(t)^dagger of a dissipation-free model.

    H has no entry between the parity sectors (:func:`_sector_view`), so it
    is diagonalized per sector, H_s = V_s diag(E_s) V_s^dagger, and with V =
    diag(V_e, V_o) and rho~ = V^dagger rho0 V, each recorded tr(A rho(t)) is
    the quadratic form phi^T (A~^T o rho~) phi^* in the phases phi_k(t) =
    exp(-i E_k t / hbar), with A~ = V^dagger A V and o the elementwise
    product.  Each recorded operator is even (the populations and H) or odd
    (the atomic coherences and the quadratures) under the parity, read from
    its sector blocks (ValueError if it is neither), so its form is nonzero
    only on the sector pairs (s, s) or (s, 1 - s).  The forms of all
    recorded operators are stacked per row sector, so a block of
    ``TIME_BLOCK`` grid points costs two field_dim-row GEMMs.  rho(t) is a
    unitary similarity of rho~, so hermiticity, purity and the minimum
    eigenvalue are checked once, on rho~.
    """
    if params.dissipative:
        raise ValueError("spectral propagation needs a dissipation-free model")
    rho0, ham = _initial(params, rho0, space)
    order, ham_sectors = _sector_view(ham, space)
    energies, vecs = np.linalg.eigh(np.stack([ham_sectors[0, :, 0], ham_sectors[1, :, 1]]))
    # rho~ as (row sector, column sector) blocks V_s^dagger rho0_st V_t
    blocks = _sectors(rho0[order]).transpose(0, 2, 1, 3)
    rho_t = vecs.conj().transpose(0, 2, 1)[:, None] @ blocks @ vecs[None]
    f, n_forms = space.field_dim, 5 + 2 * space.mode_count
    # forms[s] holds each operator's form on the row sector s and the column sector s ^ odd
    forms = np.empty((2, f, n_forms, f), complex)
    odd = np.empty(n_forms, int)
    for j, op in enumerate(_recorded_operators(space, ham)):
        op = _sectors(op[order])
        odd[j] = np.any(op[0, :, 1]) or np.any(op[1, :, 0])
        if odd[j] and (np.any(op[0, :, 0]) or np.any(op[1, :, 1])):
            raise ValueError(f"recorded operator {j} is neither even nor odd under the parity")
        for s in (0, 1):
            t = s ^ odd[j]
            forms[s, :, j, :] = (vecs[t].conj().T @ op[t, :, s] @ vecs[s]).T * rho_t[s, t]
    forms = forms.reshape(2, f, n_forms * f)
    rates = -1j * energies / params.hbar
    offsets = grid.dt * np.arange(grid.steps + 1)

    values = np.zeros((grid.steps + 1, n_forms), complex)
    for start in range(0, grid.steps + 1, TIME_BLOCK):
        block = offsets[start : start + TIME_BLOCK]
        phi = np.exp(rates[:, None, :] * block[:, None])
        out = values[start : start + len(block)]
        for s in (0, 1):
            quad = (phi[s] @ forms[s]).reshape(len(block), n_forms, f)
            out += np.einsum("bjl,jbl->bj", quad, phi[s ^ odd].conj())
    state = rho_t.transpose(0, 2, 1, 3).reshape(space.dim, space.dim)
    return _trajectory(grid, values, [_state_checks(state)], "spectral")
