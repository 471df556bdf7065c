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
    build_hamiltonian,
    coherent_state,
    destroy,
    evolve,
    evolve_rk4,
    evolve_spectral,
    initial_density,
    master_rhs,
)
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


def test_trace_drift_error_on_unstable_step():
    params = coupled_params()
    space = TruncatedSpace((6,))
    rho0 = initial_density(params, space, 1.0, AtomicDensity.from_upper(0.7, 0.0))
    grid = TimeGrid(0.0, 40.0, 40)  # RK4 far beyond its stability limit
    with pytest.raises(TraceDriftError):
        evolve_rk4(params, rho0, grid, space)


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
    rk4 = evolve_rk4(params, rho0, grid, space)
    assert exact.integrator == "spectral" and rk4.integrator == "rk4"
    # RK4's global error here is below 9e-12 at dt = 1e-3 (below 9e-8 at
    # dt = 1e-2: it scales as dt^4); the spectral route is exact up to roundoff
    quadratures = tuple(f"{q}_{m + 1}" for m in range(len(n_max)) for q in "eh")
    columns = physical_columns(
        params, ("rho_11", "rho_22", "rho_21", "rho_12", "nu") + quadratures
    )
    assert np.abs(columns(exact.phys) - columns(rk4.phys)).max() <= 1e-10
    assert np.abs(exact.energy - rk4.energy).max() <= 1e-12 * abs(rk4.energy[0])
    assert exact.max_trace_error <= 1e-12
    assert exact.max_herm_error <= 1e-12
    assert abs(exact.max_purity - rk4.max_purity) <= 1e-12
    assert exact.min_eigenvalue >= -1e-12


@pytest.fixture(scope="module")
def lossy_two_mode():
    """A dissipative two-mode RK4 reference and rho(t) integrated independently."""
    params = ModelParams.from_frequencies(
        omega=(2.0, 3.1), g=(0.7, 0.4), Omega=1.5, r12=0.1, r21=0.4, r_p=0.2
    )
    space = TruncatedSpace((3, 2))
    rho0 = initial_density(params, space, 0.8, AtomicDensity.from_upper(0.7, 0.3 + 0.2j))
    grid = TimeGrid(0.0, 1.0, 200)
    rhos = rk4(lambda rho: master_rhs(params, rho, space), rho0, grid)
    return params, space, grid, evolve(params, rho0, grid, space), rhos


def test_rk4_columns_are_explicit_traces(lossy_two_mode):
    params, space, grid, traj, rhos = lossy_two_mode
    assert traj.integrator == "rk4"
    f = space.field_dim
    atom = np.einsum("kfsft->kst", rhos.reshape(-1, f, 2, f, 2))
    eye = [np.eye(n + 1) for n in space.n_max]
    a = [
        np.kron(np.kron(destroy(4), eye[1]), np.eye(2)),
        np.kron(np.kron(eye[0], destroy(3)), np.eye(2)),
    ]
    x = [op + op.conj().T for op in a]
    y = [1j * (op.conj().T - op) for op in a]
    ham = build_hamiltonian(params, space)
    tol = 1e-13  # recording roundoff only: both integrations take the same RK4 steps
    assert np.abs(traj.rho11 - atom[:, 0, 0]).max() <= tol
    assert np.abs(traj.rho22 - atom[:, 1, 1]).max() <= tol
    assert np.abs(traj.rho21 - atom[:, 1, 0]).max() <= tol
    assert np.abs(traj.rho12 - atom[:, 0, 1]).max() <= tol
    assert np.abs(traj.nu - (atom[:, 1, 1] - atom[:, 0, 0])).max() <= tol
    for m in range(2):
        assert np.abs(traj.e[:, m] - np.einsum("ij,kji->k", x[m], rhos)).max() <= tol
        assert np.abs(traj.h[:, m] - np.einsum("ij,kji->k", y[m], rhos)).max() <= tol
    energy = np.einsum("ij,kji->k", ham, rhos)
    assert np.abs(traj.energy - energy.real).max() <= tol * np.abs(energy).max()


def test_rk4_diagnostics_are_sampled_at_the_check_points(lossy_two_mode):
    _, _, grid, traj, rhos = lossy_two_mode
    sampled = rhos[_eig_check_points(grid.steps)]
    herm = np.abs(sampled - sampled.conj().transpose(0, 2, 1)).max()
    purity = np.einsum("kij,kij->k", sampled, sampled.conj()).real
    low = np.linalg.eigvalsh(0.5 * (sampled + sampled.conj().transpose(0, 2, 1)))[:, 0]
    assert abs(traj.max_herm_error - herm) <= 1e-15
    # the dissipator lowers the purity from its initial value, which is not sampled
    assert abs(traj.max_purity - purity.max()) <= 1e-14
    assert abs(traj.min_eigenvalue - low.min()) <= 1e-14


def test_rk4_positivity_loss_is_step_error():
    # the lossy benchmark model on a smaller cutoff: its lowest eigenvalue
    # crosses -1e-8 at the coarse step and shrinks at RK4's order when halved
    params = ModelParams.from_frequencies(
        omega=(1100.0, 1900.0), g=(200.0, 150.0), Omega=1000.0, r21=100.0, r_p=50.0
    )
    space = TruncatedSpace((3, 2))
    rho11 = 1.0 / (1.0 + np.exp(-1.0))
    rho0 = initial_density(params, space, 1.0, AtomicDensity.from_upper(rho11))
    t_end = np.pi / 1100.0
    coarse, fine = (
        evolve_rk4(params, rho0, TimeGrid(0.0, t_end, steps), space).min_eigenvalue
        for steps in (256, 512)
    )
    assert coarse < -1e-8
    assert abs(fine) * 16.0 <= abs(coarse)


def test_dissipative_model_runs_rk4():
    params = coupled_params(r21=0.2)
    space = TruncatedSpace((3,))
    rho0 = initial_density(params, space, 0.5, AtomicDensity.from_upper(0.7, 0.0))
    grid = TimeGrid(0.0, 0.5, 50)
    assert evolve(params, rho0, grid, space).integrator == "rk4"
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
