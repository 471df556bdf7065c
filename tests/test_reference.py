from functools import reduce

import numpy as np
import pytest

from ppcavity.errors import DimensionCapError, TraceDriftError
from ppcavity.initialization import AtomicDensity
from ppcavity.jc import ModelParams
from ppcavity.observables import physical_columns
from ppcavity.reference import (
    _SM,
    _SP,
    _SZ,
    TruncatedSpace,
    _embed_atom,
    _eig_check_points,
    _trace_errors,
    build_hamiltonian,
    coherent_state,
    destroy,
    evolve,
    evolve_spectral,
    initial_density,
    master_rhs,
)
from ppcavity.physical import join_phys
from ppcavity.sde import TimeGrid

from helpers import rk4


def free_params(**kw):
    return ModelParams.from_frequencies(omega=2.0, g=0.0, Omega=1.5, **kw)


def coupled_params(g=0.7, **kw):
    return ModelParams.from_frequencies(omega=2.0, g=g, Omega=1.5, **kw)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def explicit_traces(params, space, rhos):
    """The recorded columns tr(A rho) of a stack of density matrices, with A built here."""
    f = space.field_dim
    atom = np.einsum("kfsft->kst", rhos.reshape(-1, f, 2, f, 2))
    eye = [np.eye(n + 1) for n in space.n_max]
    a = []
    for m, n_max in enumerate(space.n_max):
        factors = eye[:m] + [destroy(n_max + 1)] + eye[m + 1 :] + [np.eye(2)]
        a.append(reduce(np.kron, factors))
    e = np.stack([np.einsum("ij,kji->k", op + op.conj().T, rhos) for op in a], axis=-1)
    h = np.stack([np.einsum("ij,kji->k", 1j * (op.conj().T - op), rhos) for op in a], axis=-1)
    return {
        "rho11": atom[:, 0, 0],
        "rho22": atom[:, 1, 1],
        "rho21": atom[:, 1, 0],
        "rho12": atom[:, 0, 1],
        "nu": atom[:, 1, 1] - atom[:, 0, 0],
        "e": e,
        "h": h,
        "energy": np.einsum("ij,kji->k", build_hamiltonian(params, space), rhos),
    }


def explicit_phys(traces):
    return join_phys(traces["e"], traces["h"], traces["rho21"], traces["rho12"], traces["nu"])


def sampled_diagnostics(grid, rhos):
    """Hermiticity error, purities and lowest eigenvalues of ``rhos`` at the check points."""
    sampled = rhos[_eig_check_points(grid.steps)]
    herm = np.abs(sampled - sampled.conj().transpose(0, 2, 1)).max()
    purity = np.einsum("kij,kij->k", sampled, sampled.conj()).real
    low = np.linalg.eigvalsh(0.5 * (sampled + sampled.conj().transpose(0, 2, 1)))[:, 0]
    return herm, purity, low


def test_space_dimensions_and_cap():
    space = TruncatedSpace((3, 2))
    assert space.dim == 2 * 4 * 3
    with pytest.raises(DimensionCapError):
        TruncatedSpace((100, 100))
    with pytest.raises(ValueError):
        TruncatedSpace((0,))


def test_destroy_ladder():
    a = destroy(4)
    n_op = a.conj().T @ a
    assert np.allclose(np.diag(n_op), [0, 1, 2, 3])


def test_free_hamiltonian_is_diagonal():
    params = free_params()
    space = TruncatedSpace((3,))
    ham = build_hamiltonian(params, space)
    assert np.abs(ham - np.diag(np.diag(ham))).max() == 0.0
    # eigenvalues are hbar*(omega*n ± Omega/2) in the |n, s> ordering
    diag = np.diag(ham).real
    want = [params.omega[0] * n + s * params.Omega for n in range(4) for s in (-0.5, 0.5)]
    assert np.allclose(diag, want)


def test_hamiltonian_hermitian_and_ladder_element():
    params = coupled_params()
    space = TruncatedSpace((5,))
    ham = build_hamiltonian(params, space)
    assert np.abs(ham - ham.conj().T).max() <= 1e-14
    n = 3
    # <n+1, down | H | n, up> = hbar g sin(k x0) sqrt(n+1)
    got = ham[(n + 1) * 2 + 0, n * 2 + 1]
    assert abs(got - params.hbar * params.gs[0] * np.sqrt(n + 1)) <= 1e-13


def test_master_rhs_preserves_trace(rng):
    params = coupled_params(r12=0.4, r21=0.2, r_p=0.1)
    space = TruncatedSpace((3,))
    for _ in range(5):
        rho = random_density(rng, space.dim)
        assert abs(np.trace(master_rhs(params, rho, space))) <= 1e-12


def test_bloch_relaxation_of_inversion(rng):
    params = free_params(r12=0.4, r21=0.25, r_p=0.15)
    space = TruncatedSpace((2,))
    sz = np.kron(np.eye(space.field_dim), np.diag([-0.5, 0.5]))
    for _ in range(5):
        rho = random_density(rng, space.dim)
        dotrho = master_rhs(params, rho, space)
        got = 2.0 * np.trace(sz @ dotrho)
        want = -params.gamma1 * (2.0 * np.trace(sz @ rho) - params.nu0)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def lindblad(op, rho):
    """Dense D[L] rho = L rho L^dagger - {L^dagger L, rho}/2."""
    op_dag = op.conj().T
    return op @ rho @ op_dag - 0.5 * (op_dag @ op @ rho + rho @ op_dag @ op)


@pytest.mark.parametrize(
    "rates",
    [dict(r12=0.4), dict(r21=0.25), dict(r_p=0.15), dict(r12=0.4, r21=0.25, r_p=0.15)],
    ids=["r12", "r21", "r_p", "all"],
)
def test_dissipator_matches_dense_lindblad(rng, rates):
    params = ModelParams.from_frequencies(omega=(2.0, 3.1), g=(0.7, 0.4), Omega=1.5, **rates)
    space = TruncatedSpace((3, 2))
    a = rng.standard_normal((space.dim,) * 2) + 1j * rng.standard_normal((space.dim,) * 2)
    rho = a + a.conj().T
    sm, sp, sz = (_embed_atom(op, space) for op in (_SM, _SP, _SZ))
    want = (
        params.r21 * lindblad(sm, rho)
        + params.r12 * lindblad(sp, rho)
        + 2.0 * params.r_p * lindblad(sz, rho)
    )
    # a zero Hamiltonian leaves the dissipative part of the right-hand side alone
    got = master_rhs(params, rho, space, hamiltonian=np.zeros_like(rho))
    assert np.abs(got - want).max() <= 1e-14


def test_free_precession():
    params = free_params()
    space = TruncatedSpace((2,))
    rho0 = initial_density(params, space, 0.4, AtomicDensity.from_upper(0.6, 0.2 + 0.1j))
    grid = TimeGrid(0.0, 2.0, 400)
    traj = evolve(params, rho0, grid, space)
    exact = np.conj(0.2 + 0.1j) * np.exp(-1j * params.Omega * grid.times)
    assert np.abs(traj.rho21 - exact).max() <= 1e-9
    assert np.abs(traj.rho11 - 0.6).max() <= 1e-12


def test_coherence_decays_at_gamma2():
    params = free_params(r12=0.4, r21=0.25, r_p=0.15)
    space = TruncatedSpace((2,))
    rho0 = initial_density(params, space, 0.0, AtomicDensity.from_upper(0.8, 0.25))
    grid = TimeGrid(0.0, 1.5, 600)
    traj = evolve(params, rho0, grid, space)
    exact = 0.25 * np.exp(-(1j * params.Omega + params.gamma2) * grid.times)
    assert np.abs(traj.rho21 - exact).max() <= 1e-8


def test_conservation_monitors():
    params = coupled_params()
    space = TruncatedSpace((8,))
    rho0 = initial_density(params, space, 1.2, AtomicDensity.from_upper(0.7, 0.1))
    grid = TimeGrid(0.0, 3.0, 1500)
    traj = evolve(params, rho0, grid, space)
    assert traj.max_trace_error <= 1e-10
    assert traj.max_herm_error <= 1e-12
    assert traj.max_purity <= 1.0 + 1e-10
    assert traj.min_eigenvalue >= -1e-8
    spread = np.abs(traj.energy - traj.energy[0]).max()
    assert spread <= 1e-8 * abs(traj.energy[0])


def test_cutoff_insensitivity_small_system():
    params = coupled_params(g=0.4)
    grid = TimeGrid(0.0, 1.0, 500)
    results = {}
    for n_max in (14, 20):
        space = TruncatedSpace((n_max,))
        rho0 = initial_density(params, space, 1.2, AtomicDensity.from_upper(0.7, 0.0))
        results[n_max] = evolve(params, rho0, grid, space)
    columns = physical_columns(params, ("rho_11", "rho_21", "e_1", "h_1"))
    diff = np.abs(columns(results[14].phys) - columns(results[20].phys)).max()
    assert diff <= 1e-6


def test_trace_errors_raise_at_the_first_drift_and_name_its_time():
    times = np.array([0.0, 0.5, 1.0, 1.5])
    values = np.zeros((4, 2), complex)
    values[:, 0] = [0.3, 0.3, 0.3 + 2e-6, 0.3 + 1j]
    values[:, 1] = 0.7
    assert np.abs(_trace_errors(values[:2], times[:2])).max() <= 1e-15
    with pytest.raises(TraceDriftError, match=r"trace drift 2\.000e-06 at t = 1;"):
        _trace_errors(values, times)
    values[2, 0] = np.nan  # a non-finite trace is drift too
    with pytest.raises(TraceDriftError, match=r"at t = 1;"):
        _trace_errors(values, times)


def test_split_step_is_stable_on_a_coarse_dissipative_step():
    # dt = 1 is far beyond an explicit integrator's stability limit; both
    # split-step factors are exact, completely positive and trace-preserving
    # (measured: trace error 5.2e-15, lowest eigenvalue +5.5e-6)
    params = coupled_params(r12=0.1, r21=0.4, r_p=0.2)
    space = TruncatedSpace((6,))
    rho0 = initial_density(params, space, 1.0, AtomicDensity.from_upper(0.7, 0.0))
    traj = evolve(params, rho0, TimeGrid(0.0, 40.0, 40), space)
    assert traj.integrator == "strang"
    assert np.isfinite(traj.phys).all() and np.isfinite(traj.energy).all()
    assert traj.max_trace_error <= 1e-12
    assert traj.min_eigenvalue >= -1e-14


def test_spectral_route_is_exact_on_a_step_that_breaks_rk4():
    params = coupled_params()
    space = TruncatedSpace((6,))
    rho0 = initial_density(params, space, 1.0, AtomicDensity.from_upper(0.7, 0.0))
    traj = evolve(params, rho0, TimeGrid(0.0, 40.0, 40), space)
    assert traj.integrator == "spectral"
    assert np.isfinite(traj.phys).all() and np.isfinite(traj.energy).all()
    assert traj.max_trace_error <= 1e-12


@pytest.mark.parametrize(
    "params, n_max",
    [
        (coupled_params(), (8,)),
        (ModelParams.from_frequencies(omega=(2.0, 3.1), g=(0.7, 0.4), Omega=1.5), (4, 3)),
    ],
    ids=["one-mode", "two-modes"],
)
def test_spectral_route_matches_rk4(params, n_max):
    space = TruncatedSpace(n_max)
    rho0 = initial_density(params, space, 1.2, AtomicDensity.from_upper(0.7, 0.1 + 0.2j))
    grid = TimeGrid(0.0, 1.0, 1000)
    exact = evolve(params, rho0, grid, space)
    assert exact.integrator == "spectral"
    ham = build_hamiltonian(params, space)
    rhos = rk4(lambda rho: master_rhs(params, rho, space, hamiltonian=ham), rho0, grid)
    want = explicit_traces(params, space, rhos)
    # RK4's global error here is below 9e-12 at dt = 1e-3 (below 9e-8 at
    # dt = 1e-2: it scales as dt^4); the spectral route is exact up to roundoff
    quadratures = tuple(f"{q}_{m + 1}" for m in range(len(n_max)) for q in "eh")
    columns = physical_columns(
        params, ("rho_11", "rho_22", "rho_21", "rho_12", "nu") + quadratures
    )
    assert np.abs(columns(exact.phys) - columns(explicit_phys(want))).max() <= 1e-10
    energy = want["energy"].real
    assert np.abs(exact.energy - energy).max() <= 1e-12 * abs(energy[0])
    _, purity, _ = sampled_diagnostics(grid, rhos)
    assert exact.max_trace_error <= 1e-12
    assert exact.max_herm_error <= 1e-12
    assert abs(exact.max_purity - purity.max()) <= 1e-12
    assert exact.min_eigenvalue >= -1e-12


def lindblad_atomic_flow(params, tau):
    """exp(tau L) of the 4 x 4 atomic Liouvillian, by the Taylor series of the dense terms.

    Indexed [s, t, u, v]: the flow maps the atomic element [u, v] to [s, t].
    """
    liouvillian = np.empty((4, 4), complex)
    for col in range(4):
        unit = np.zeros(4, complex)
        unit[col] = 1.0
        unit = unit.reshape(2, 2)
        liouvillian[:, col] = (
            params.r21 * lindblad(_SM, unit)
            + params.r12 * lindblad(_SP, unit)
            + 2.0 * params.r_p * lindblad(_SZ, unit)
        ).ravel()
    term = flow = np.eye(4, dtype=complex)
    for k in range(1, 40):
        term = term @ liouvillian * (tau / k)
        flow = flow + term
    return flow.reshape(2, 2, 2, 2)


def split_step_states(params, space, rho0, grid):
    """rho <- D(dt/2) U D(dt/2) rho, with U from a dense eigh and D from the atomic Liouvillian."""
    energies, vecs = np.linalg.eigh(build_hamiltonian(params, space))
    unitary = vecs @ np.diag(np.exp(-1j * energies * grid.dt / params.hbar)) @ vecs.conj().T
    flow = lindblad_atomic_flow(params, 0.5 * grid.dt)
    f = space.field_dim

    def relax(rho):
        return np.einsum("stuv,fugv->fsgt", flow, rho.reshape(f, 2, f, 2)).reshape(rho.shape)

    rhos = [rho0]
    for _ in range(grid.steps):
        rhos.append(relax(unitary @ relax(rhos[-1]) @ unitary.conj().T))
    return np.array(rhos)


@pytest.fixture(scope="module")
def lossy_two_mode():
    """A dissipative two-mode reference and its split-step rho(t) formed independently."""
    params = ModelParams.from_frequencies(
        omega=(2.0, 3.1), g=(0.7, 0.4), Omega=1.5, r12=0.1, r21=0.4, r_p=0.2
    )
    space = TruncatedSpace((3, 2))
    rho0 = initial_density(params, space, 0.8, AtomicDensity.from_upper(0.7, 0.3 + 0.2j))
    grid = TimeGrid(0.0, 1.0, 200)
    rhos = split_step_states(params, space, rho0, grid)
    return params, space, grid, evolve(params, rho0, grid, space), rhos


def test_strang_columns_are_explicit_traces(lossy_two_mode):
    params, space, grid, traj, rhos = lossy_two_mode
    assert traj.integrator == "strang"
    want = explicit_traces(params, space, rhos)
    # roundoff only: both integrations take the same split steps, through
    # different operations (measured worst deviation 1.6e-14)
    tol = 1e-13
    for name in ("rho11", "rho22", "rho21", "rho12", "nu", "e", "h"):
        assert np.abs(getattr(traj, name) - want[name]).max() <= tol, name
    energy = want["energy"]
    assert np.abs(traj.energy - energy.real).max() <= tol * np.abs(energy).max()


def test_strang_diagnostics_are_sampled_at_the_check_points(lossy_two_mode):
    _, _, grid, traj, rhos = lossy_two_mode
    herm, purity, low = sampled_diagnostics(grid, rhos)
    assert abs(traj.max_herm_error - herm) <= 1e-15
    # the dissipator lowers the purity from its initial value, which is not sampled
    assert abs(traj.max_purity - purity.max()) <= 1e-14
    assert abs(traj.min_eigenvalue - low.min()) <= 1e-14


def test_strang_keeps_positivity_and_converges_at_second_order():
    # the lossy benchmark model on a smaller cutoff, against RK4 at 8 times the
    # finest step (it moves by 1.9e-13 when its step is halved once more);
    # measured errors 5.2e-7 and 1.3e-7, a ratio of 4.0, and lowest
    # eigenvalues -1.6e-16 and -2.3e-16
    params = ModelParams.from_frequencies(
        omega=(1100.0, 1900.0), g=(200.0, 150.0), Omega=1000.0, r21=100.0, r_p=50.0
    )
    space = TruncatedSpace((3, 2))
    rho11 = 1.0 / (1.0 + np.exp(-1.0))
    rho0 = initial_density(params, space, 1.0, AtomicDensity.from_upper(rho11))
    t_end = np.pi / 1100.0
    ham = build_hamiltonian(params, space)
    fine = rk4(
        lambda rho: master_rhs(params, rho, space, hamiltonian=ham),
        rho0,
        TimeGrid(0.0, t_end, 8 * 512),
    )
    errors = []
    for steps in (256, 512):
        traj = evolve(params, rho0, TimeGrid(0.0, t_end, steps), space)
        assert traj.integrator == "strang"
        assert traj.min_eigenvalue >= -1e-14
        want = explicit_phys(explicit_traces(params, space, fine[:: 8 * 512 // steps]))
        errors.append(np.abs(traj.phys - want).max())
    assert errors[0] >= 3.5 * errors[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pure_dephasing_keeps_the_populations():
    # r12 = r21 = 0: the population exchange has Gamma = 0, the one branch of
    # the relaxation that takes its weight as tau
    params = free_params(r_p=0.3)
    space = TruncatedSpace((2,))
    rho0 = initial_density(params, space, 0.0, AtomicDensity.from_upper(0.8, 0.25))
    grid = TimeGrid(0.0, 1.5, 600)
    traj = evolve(params, rho0, grid, space)
    assert traj.integrator == "strang"
    assert np.abs(traj.rho11 - traj.rho11[0]).max() <= 1e-14
    assert np.abs(traj.rho22 - traj.rho22[0]).max() <= 1e-14
    exact = 0.25 * np.exp(-(1j * params.Omega + params.gamma2) * grid.times)
    assert np.abs(traj.rho21 - exact).max() <= 1e-12


def test_dissipative_model_runs_strang():
    params = coupled_params(r21=0.2)
    space = TruncatedSpace((3,))
    rho0 = initial_density(params, space, 0.5, AtomicDensity.from_upper(0.7, 0.0))
    grid = TimeGrid(0.0, 0.5, 50)
    assert evolve(params, rho0, grid, space).integrator == "strang"
    with pytest.raises(ValueError, match="dissipation-free"):
        evolve_spectral(params, rho0, grid, space)


def test_coherent_state_statistics():
    vec = coherent_state(2.0, 40)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    n_mean = (np.arange(40) * np.abs(vec) ** 2).sum()
    assert abs(n_mean - 4.0) <= 1e-10


def test_initial_density_trace_and_block():
    params = coupled_params()
    space = TruncatedSpace((10,))
    atom = AtomicDensity.from_upper(0.7, 0.1j)
    rho0 = initial_density(params, space, 1.0, atom)
    assert abs(np.trace(rho0) - 1.0) <= 1e-12
    reduced = np.einsum("fsft->st", rho0.reshape(space.field_dim, 2, space.field_dim, 2))
    assert np.abs(reduced - atom.matrix()).max() <= 1e-12
