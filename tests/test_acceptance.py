"""Acceptance suite: every criterion at its stated tolerance.

The heavyweight shared computations (truncated-Fock reference runs and the
3000-path ensemble) are module-scoped fixtures; each criterion prints one
line so a verbose run reads as a checklist.
"""

import numpy as np
import pytest

from ppcavity.basis import BasisFamily
from ppcavity.initialization import AtomicDensity, init_points
from ppcavity.invariants import (
    check_additive_noise_constant,
    check_factorization,
    check_factorization_dissipative,
    check_init_reconstruction,
    check_ito_transform,
    check_jacobian_diffusion,
)
from ppcavity.jc import ModelParams, jc_sde_system, phase_init_sampler
from ppcavity.maxwell_bloch import evolve_mb
from ppcavity.observables import observable_bundle, physical_columns
from ppcavity.physical import join_phys
from ppcavity.reference import TruncatedSpace, evolve, initial_density
from ppcavity.sde import TimeGrid, run_ensemble

THERMAL_P = 1.0 / (1.0 + np.exp(-1.0))
SEED_FIG3 = 20240
SEED_CONTRAST = 2024
SEED_RELAX = 5150


def report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def fig3():
    params = ModelParams.from_frequencies(omega=1100.0, g=200.0, Omega=1000.0)
    atom = AtomicDensity.from_upper(THERMAL_P, 0.0)
    grid = TimeGrid(0.0, np.pi / 1100.0, 8192)
    return params, atom, grid


@pytest.fixture(scope="module")
def fock60(fig3):
    params, atom, grid = fig3
    space = TruncatedSpace((60,))
    rho0 = initial_density(params, space, 5.0, atom)
    return evolve(params, rho0, grid, space)


@pytest.fixture(scope="module")
def fock80(fig3):
    params, atom, grid = fig3
    space = TruncatedSpace((80,))
    rho0 = initial_density(params, space, 5.0, atom)
    return evolve(params, rho0, grid, space)


@pytest.fixture(scope="module")
def sde_fig3(fig3):
    params, atom, grid = fig3
    family = BasisFamily.additive_noise(4.0, 0.0)
    dist = init_points(atom, family)
    sampler = phase_init_sampler(params, family, 5.0, dist)
    system = jc_sde_system(params, family)
    bundle = observable_bundle(
        params, family, ("rho_11", "rho_22", "rho_21", "rho_12", "nu")
    )
    return run_ensemble(system, sampler, grid, 3000, SEED_FIG3, bundle)


@pytest.fixture(scope="module")
def contrast_runs(fig3):
    params, atom, grid = fig3
    results = {}
    for key, family in (
        ("coherent-spin", BasisFamily.coherent_spin()),
        ("additive-noise", BasisFamily.additive_noise(4.0, 0.0)),
    ):
        dist = init_points(atom, family)
        sampler = phase_init_sampler(params, family, 5.0, dist)
        system = jc_sde_system(params, family)
        bundle = observable_bundle(params, family, ("z", "w"))
        results[key] = run_ensemble(
            system, sampler, grid, 1000, SEED_CONTRAST, bundle
        )
    return results


def test_criterion_1_fig3_reproduction(fig3, fock60, sde_fig3):
    _, _, grid = fig3
    res = sde_fig3
    fraction = res.runs_diverged / res.runs_requested
    worst_abs = 0.0
    worst_sigma = 0.0
    pairs = (
        ("rho_11", fock60.rho11.real, "real"),
        ("rho_22", fock60.rho22.real, "real"),
        ("rho_21", fock60.rho21.real, "real"),
        ("rho_21", fock60.rho21.imag, "imag"),
    )
    for name, ref, part in pairs:
        mean, err = res.column(name)
        got = mean.real if part == "real" else mean.imag
        dev = np.abs(got - ref)
        worst_abs = max(worst_abs, dev.max())
        sigma = dev / (4.0 * err + 1e-9)
        worst_sigma = max(worst_sigma, sigma.max())
    passed = worst_abs <= 0.05 and worst_sigma <= 1.0 and fraction <= 0.01
    report(
        1,
        passed,
        f"max |SDE - Fock| = {worst_abs:.4f} (tol 0.05), "
        f"max dev / 4 stderr = {worst_sigma:.3f} (tol 1), "
        f"diverged {res.runs_diverged}/{res.runs_requested} (tol 1%)",
    )


def test_criterion_2_basis_family_contrast(contrast_runs):
    # The additive-noise family resolves the mean fermionic trajectory with a
    # relative standard error (stderr over trajectory magnitude at the final
    # time) at least three times smaller than coherent-spin states.  Absolute
    # standard errors do not separate the families: the additive-noise
    # coordinates wander over a region roughly ten times larger, exactly as
    # the sampled trajectories show.
    cs = contrast_runs["coherent-spin"]
    add = contrast_runs["additive-noise"]
    ratios = []
    for j in range(2):
        rel_cs = cs.stderr[-1, j] / abs(cs.mean[-1, j])
        rel_add = add.stderr[-1, j] / abs(add.mean[-1, j])
        ratios.append(rel_cs / rel_add)
    passed = min(ratios) >= 3.0
    report(
        2,
        passed,
        f"relative-stderr ratios (coherent-spin / additive-noise) at t_N: "
        f"z {ratios[0]:.2f}, w {ratios[1]:.2f} (tol >= 3)",
    )


def test_criterion_3_factorization_suites():
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 3], dtype=np.uint64)))
    err_free, tol_free = check_factorization(rng, 100)
    err_diss, tol_diss = check_factorization_dissipative(rng, 100)
    err_const, _ = check_additive_noise_constant(rng, 100)
    passed = err_free <= tol_free and err_diss <= tol_diss and err_const == 0.0
    report(
        3,
        passed,
        f"|BB^T - D| = {err_free:.2e} free, {err_diss:.2e} dissipative "
        f"(tol 1e-12); additive-noise constancy exact = {err_const == 0.0}",
    )


def test_criterion_4_initialization():
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 4], dtype=np.uint64)))
    err, tol = check_init_reconstruction(rng, 100)
    thermal = AtomicDensity.from_upper(THERMAL_P, 0.0)
    worst_thermal = 0.0
    for family in (BasisFamily.coherent_spin(), BasisFamily.additive_noise(4.0, 0.0)):
        dist = init_points(thermal, family)
        worst_thermal = max(
            worst_thermal,
            np.abs(dist.reconstruct(family) - thermal.matrix()).max(),
        )
    passed = err <= tol and worst_thermal <= 1e-12
    report(
        4,
        passed,
        f"reconstruction error {err:.2e} over 100 random densities, "
        f"{worst_thermal:.2e} for the thermal state (tol 1e-12)",
    )


def test_criterion_5_ito_transform():
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 5], dtype=np.uint64)))
    err_drift, tol_drift = check_ito_transform(rng, 100)
    err_noise, tol_noise = check_jacobian_diffusion(rng, 100)
    passed = err_drift <= tol_drift and err_noise <= tol_noise
    report(
        5,
        passed,
        f"drift transform error {err_drift:.2e} (tol 1e-6), "
        f"noise transform error {err_noise:.2e} (tol 1e-8)",
    )


def test_criterion_6_reference_conservation(fig3, fock60, fock80):
    energy_drift = np.abs(fock60.energy - fock60.energy[0]).max() / abs(
        fock60.energy[0]
    )
    columns = physical_columns(fig3[0], ("rho_11", "rho_22", "rho_21", "rho_12", "e_1", "h_1"))
    cutoff = np.abs(columns(fock60.phys) - columns(fock80.phys)).max()
    passed = (
        fock60.max_trace_error <= 1e-8
        and fock60.max_herm_error <= 1e-10
        and energy_drift <= 1e-8
        and cutoff <= 1e-6
    )
    report(
        6,
        passed,
        f"trace {fock60.max_trace_error:.2e} (tol 1e-8), "
        f"hermiticity {fock60.max_herm_error:.2e} (tol 1e-10), "
        f"energy {energy_drift:.2e} (tol 1e-8), "
        f"cutoff 60->80 {cutoff:.2e} (tol 1e-6)",
    )


def test_criterion_7_semiclassical_divergence(fig3, fock60, sde_fig3):
    params, atom, grid = fig3
    rho21 = complex(atom.rho21)
    state0 = join_phys((10.0,), (0.0,), rho21, np.conj(rho21), (atom.rho22 - atom.rho11).real)
    mb = evolve_mb(params, state0, grid)
    mb_rho11 = physical_columns(params, ("rho_11",))(mb.phys)[:, 0]
    mb_dev = np.abs(mb_rho11.real - fock60.rho11.real).max()
    mean, err = sde_fig3.column("rho_11")
    sde_dev = np.abs(mean.real - fock60.rho11.real).max()
    passed = mb_dev > 0.05 and sde_dev <= 0.05
    report(
        7,
        passed,
        f"Maxwell-Bloch deviates {mb_dev:.3f} (> 0.05) while the SDE ensemble "
        f"stays within {sde_dev:.4f} (<= 0.05)",
    )


def test_criterion_8_relaxation_limits():
    params = ModelParams.from_frequencies(
        omega=2.0, g=0.0, Omega=0.7, r12=0.4, r21=0.25, r_p=0.15
    )
    atom = AtomicDensity.from_upper(0.8, 0.25)
    nu0_init = float((atom.rho22 - atom.rho11).real)
    grid = TimeGrid(0.0, 1.2, 2400)
    t = grid.times
    nu_exact = params.nu0 + (nu0_init - params.nu0) * np.exp(-params.gamma1 * t)
    coh_exact = complex(atom.rho21) * np.exp(
        -(1j * params.Omega + params.gamma2) * t
    )

    space = TruncatedSpace((1,))
    ref = evolve(params, initial_density(params, space, 0.0, atom), grid, space)
    ref_err = max(
        np.abs(ref.nu - nu_exact).max(), np.abs(ref.rho21 - coh_exact).max()
    )

    rho21 = complex(atom.rho21)
    mb = evolve_mb(params, join_phys((0.0,), (0.0,), rho21, np.conj(rho21), nu0_init), grid)
    mb_err = max(
        np.abs(mb.nu - nu_exact).max(), np.abs(mb.rho21 - coh_exact).max()
    )

    family = BasisFamily.coherent_spin()
    dist = init_points(atom, family)
    sampler = phase_init_sampler(params, family, 0.0, dist)
    res = run_ensemble(
        jc_sde_system(params, family),
        sampler,
        grid,
        4000,
        SEED_RELAX,
        observable_bundle(params, family, ("rho_21", "nu")),
    )
    m_nu, e_nu = res.column("nu")
    m_coh, e_coh = res.column("rho_21")
    sde_ok = (
        np.abs(m_nu - nu_exact) <= 4.0 * e_nu + 1e-6
    ).all() and (np.abs(m_coh - coh_exact) <= 4.0 * e_coh + 1e-6).all()

    passed = ref_err <= 1e-8 and mb_err <= 1e-8 and sde_ok
    report(
        8,
        passed,
        f"closed-form error: reference {ref_err:.2e}, Maxwell-Bloch {mb_err:.2e} "
        f"(tol 1e-8); SDE within 4 stderr everywhere = {sde_ok} "
        f"({res.runs_diverged} diverged)",
    )
