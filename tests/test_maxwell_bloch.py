import warnings
from functools import partial

import numpy as np
import pytest

import ppcavity.cli as cli_module
from ppcavity.cli import main
from ppcavity.invariants import check_mb_drift_identity
from ppcavity.jc import ModelParams
from ppcavity.maxwell_bloch import BLOCH_BOUND_SLACK, evolve_mb, mb_rhs
from ppcavity.observables import physical_columns
from ppcavity.physical import drift_bar, join_phys
from ppcavity.sde import TimeGrid

from helpers import numpy_mb_rhs, rk4, strict_json


def mb_state(epsilon, eta, rho21, nu):
    """Physical vector on the hermitian slice, rho12 = conj(rho21)."""
    return join_phys(epsilon, eta, rho21, np.conj(rho21), nu)


@pytest.mark.parametrize("modes", [1, 2, 3, 8, 9])
@pytest.mark.parametrize(
    "rates", [{}, {"r12": 0.4, "r21": 0.25, "r_p": 0.15}], ids=["closed", "lossy"]
)
def test_float_stepping_is_bit_identical_to_numpy_form(modes, rates):
    # from 8 modes on numpy sums the products pairwise, not left to right
    rng = np.random.default_rng(modes)
    params = ModelParams.from_frequencies(
        omega=tuple(np.sort(rng.uniform(1.0, 3.0, modes))),
        g=tuple(rng.uniform(0.1, 0.5, modes)),
        Omega=1.3,
        **rates,
    )
    rho21 = complex(*(0.3 * rng.standard_normal(2)))
    state0 = mb_state(rng.standard_normal(modes), rng.standard_normal(modes), rho21, -0.4)
    grid = TimeGrid(0.0, 2.0, 300)
    traj = evolve_mb(params, state0, grid)
    n = modes
    vec0 = np.concatenate([state0[0 : 2 * n : 2].real, state0[1 : 2 * n : 2].real])
    vec0 = np.append(vec0, [rho21.real, rho21.imag, -0.4])
    frozen = rk4(partial(numpy_mb_rhs, params), vec0, grid)
    eps, eta, re21, im21, nu = frozen[:, 0:n], frozen[:, n : 2 * n], *frozen[:, 2 * n :].T
    assert np.array_equal(traj.epsilon, eps) and np.array_equal(traj.eta, eta)
    assert np.array_equal(traj.rho21.real, re21) and np.array_equal(traj.rho21.imag, im21)
    assert np.array_equal(traj.nu, nu)
    violation = ((re21**2 + im21**2) - (1.0 - nu**2) / 4.0).max()
    assert np.array_equal(traj.max_bloch_violation, violation)
    deriv = numpy_mb_rhs(params, vec0)
    expected = mb_state(deriv[0:n], deriv[n : 2 * n], complex(*deriv[2 * n : -1]), deriv[-1])
    assert np.array_equal(mb_rhs(params, state0), expected)


def test_rhs_equals_changed_variable_drift(rng):
    err, tol = check_mb_drift_identity(rng, 50)
    assert err <= tol


def test_rhs_is_hermitian_slice_of_drift_bar():
    params = ModelParams.from_frequencies(
        omega=(0.9, 1.7), g=(0.4, 0.25), Omega=1.3, r12=0.4, r21=0.25, r_p=0.15
    )
    state = mb_state((0.7, -0.2), (0.1, 0.4), 0.1 + 0.05j, -0.3)
    deriv = mb_rhs(params, state)
    bar = drift_bar(params, state)
    assert np.abs(deriv - bar).max() <= 1e-14


def test_decoupled_invariants():
    params = ModelParams.from_frequencies(omega=(2.0, 3.0), g=(0.0, 0.0), Omega=1.4)
    state0 = mb_state((1.0, 0.3), (0.2, -0.5), 0.15 + 0.1j, -0.4)
    grid = TimeGrid(0.0, 4.0, 2000)
    traj = evolve_mb(params, state0, grid)
    energy = (traj.epsilon**2 + traj.eta**2).sum(axis=1)
    assert np.abs(energy - energy[0]).max() <= 1e-10 * energy[0]
    assert np.abs(np.abs(traj.rho21) - abs(0.15 + 0.1j)).max() <= 1e-10


def test_relaxation_closed_form():
    params = ModelParams.from_frequencies(
        omega=(2.0,), g=(0.0,), Omega=0.0, r12=0.4, r21=0.25, r_p=0.15
    )
    state0 = mb_state((0.0,), (0.0,), 0.2, -0.6)
    grid = TimeGrid(0.0, 3.0, 1500)
    traj = evolve_mb(params, state0, grid)
    nu_exact = params.nu0 + (-0.6 - params.nu0) * np.exp(-params.gamma1 * grid.times)
    coh_exact = 0.2 * np.exp(-params.gamma2 * grid.times)
    assert np.abs(traj.nu - nu_exact).max() <= 1e-8
    assert np.abs(np.abs(traj.rho21) - coh_exact).max() <= 1e-8


def test_against_independent_complex_rk4_and_step_halving():
    params = ModelParams.from_frequencies(omega=1100.0, g=200.0, Omega=1000.0)
    state0 = mb_state((10.0,), (0.0,), 0.0, -0.46)
    grid = TimeGrid(0.0, 0.25 * np.pi / 1100.0, 2048)
    traj = evolve_mb(params, state0, grid)
    # independent integration of the complex changed-variable drift
    other = rk4(lambda x: drift_bar(params, x), state0, grid)
    assert np.abs(traj.rho21 - other[:, 2]).max() <= 1e-10
    assert np.abs(traj.epsilon[:, 0] - other[:, 0].real).max() <= 1e-9
    # Richardson: halving the step changes nothing at the reported accuracy
    fine = evolve_mb(params, state0, TimeGrid(0.0, grid.t_end, 2 * grid.steps))
    assert np.abs(traj.rho21 - fine.rho21[::2]).max() <= 1e-10


def test_hermitian_columns():
    params = ModelParams.from_frequencies(omega=(2.0,), g=(0.3,), Omega=1.0)
    state0 = mb_state((1.0,), (0.0,), 0.1 + 0.2j, -0.2)
    traj = evolve_mb(params, state0, TimeGrid(0.0, 1.0, 200))
    cols = physical_columns(params, ("rho_12", "rho_21", "rho_11", "rho_22"))(traj.phys)
    assert np.array_equal(cols[:, 0], np.conj(cols[:, 1]))
    assert np.abs(cols[:, 2] + cols[:, 3] - 1.0).max() <= 1e-14


@pytest.mark.parametrize("rho21, violated", [(0.9, True), (0.3, False)], ids=["bad", "good"])
def test_bloch_bound_violation_is_recorded_and_reported(
    tmp_path, monkeypatch, capsys, rho21, violated
):
    # evolve_mb records the worst violation without a Python warning, and
    # ppcavity run reports it on stderr beside its other warnings
    params = ModelParams.from_frequencies(omega=(2.0,), g=(0.0,), Omega=1.0)
    state = mb_state((0.0,), (0.0,), rho21, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve_mb(params, state, TimeGrid(0.0, 0.1, 10))
    if violated:
        assert traj.max_bloch_violation > BLOCH_BOUND_SLACK
    else:
        assert traj.max_bloch_violation <= 0.0
    # no configuration starts off the Bloch sphere: the run gets this trajectory
    monkeypatch.setattr(cli_module, "evolve_mb", lambda *args: traj)
    cfg_path = tmp_path / "mb.cfg"
    cfg_path.write_text(
        "[run]\nengine = mb\nobservables = rho_21, nu\n"
        "[model]\nOmega = 1\nomega = 2\ng = 0\n[grid]\nt_end = 0.1\nsteps = 10\n"
    )
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "mb.csv")]) == 0
    violation = traj.max_bloch_violation
    warning = f"warning: Bloch-sphere bound violated by {violation:.3e} during the run"
    assert capsys.readouterr().err == (warning + "\n" if violated else "")


@pytest.mark.parametrize(
    "steps, rho12, observables",
    [
        pytest.param(200, 0.0, "observables = rho_21, nu\n", id="200-0.0"),
        pytest.param(120, 0.3, "observables = rho_21, nu\n", id="120-0.3"),
        pytest.param(120, 0.3, "", id="120-0.3-default-observables"),
    ],
)
def test_overflowed_run_is_recorded_and_reported(tmp_path, capsys, steps, rho12, observables):
    # omega dt = 6.05 and 10.1, past RK4's stability bound on the imaginary axis (2.83);
    # evolve_mb records it without a Python warning, and ppcavity run reports it;
    # the default observables do arithmetic on the non-finite values (rho_11
    # divides), the copied columns rho_21 and nu do not
    cfg_path = tmp_path / "mb.cfg"
    cfg_path.write_text(
        f"[run]\nengine = mb\n{observables}"
        "[model]\nOmega = 1000\nomega = 1100\ng = 200\n"
        f"[grid]\nt_end = 1.1\nsteps = {steps}\n"
        f"[initial]\nalpha = 5 0\nrho11 = 0.5\nrho12 = {rho12} 0\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "mb.csv")]) == 0
    assert capsys.readouterr().err == "warning: the trajectory overflowed during the run\n"
    # the sidecar is strict JSON: the non-finite violation is written as null
    assert strict_json(tmp_path / "mb.csv.meta.json")["max_bloch_violation"] is None


def test_state_off_the_hermitian_slice_is_refused():
    params = ModelParams.from_frequencies(omega=(2.0, 3.0), g=(0.3, 0.2), Omega=1.0)
    grid = TimeGrid(0.0, 0.1, 10)
    good = mb_state((1.0, 0.5), (0.0, -0.2), 0.1 + 0.2j, -0.2)
    evolve_mb(params, good, grid)
    wrong_length = good[:-1]
    rho12_not_conj = good.copy()
    rho12_not_conj[5] = 0.1 + 0.2j
    complex_nu = good.copy()
    complex_nu[6] = -0.2 + 0.1j
    for bad, message in (
        (wrong_length, "length 7"),
        (rho12_not_conj, "rho12 = conj"),
        (complex_nu, "real epsilon, eta and nu"),
    ):
        with pytest.raises(ValueError, match=message):
            evolve_mb(params, bad, grid)
        with pytest.raises(ValueError, match=message):
            mb_rhs(params, bad)
