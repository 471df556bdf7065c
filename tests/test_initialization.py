import numpy as np
import pytest

from ppcavity.basis import BasisFamily
from ppcavity.errors import (
    BoundaryPopulationError,
    PositivityError,
    UnreachableTargetError,
)
from ppcavity.initialization import AtomicDensity, init_points

from helpers import projector_2x2

CS = BasisFamily.coherent_spin()
ADD = BasisFamily.additive_noise(4.0, 0.0)

THERMAL_P = 1.0 / (1.0 + np.exp(-1.0))


def reconstruct_independent(dist, family):
    out = np.zeros((2, 2), dtype=complex)
    for weight, z, w in zip(dist.weights, dist.zs, dist.ws):
        out += weight * projector_2x2(family, z, w)
    return out


def test_thermal_state_both_families():
    rho = AtomicDensity.from_upper(THERMAL_P, 0.0)
    big_k = np.exp(-0.5)
    for fam in (CS, ADD):
        dist = init_points(rho, fam)
        assert np.allclose(dist.weights, [0.0, 0.5, 0.5], atol=1e-15)
        h1 = fam.pair(dist.zs[1], 0.0)[0]
        h2 = fam.pair(dist.zs[2], 0.0)[0]
        assert abs(complex(h1) - big_k) <= 1e-12
        assert abs(complex(h2) + big_k) <= 1e-12
        assert np.abs(reconstruct_independent(dist, fam) - rho.matrix()).max() <= 1e-12


def test_maximally_mixed_coherent_spin():
    rho = AtomicDensity.from_upper(0.5, 0.0)
    dist = init_points(rho, CS)
    assert np.allclose(dist.weights, [0.0, 0.5, 0.5])
    assert np.allclose(dist.zs[1:], [1.0, -1.0])
    assert np.allclose(dist.ws[1:], [1.0, -1.0])
    assert np.abs(reconstruct_independent(dist, CS) - 0.5 * np.eye(2)).max() <= 1e-14


def test_coherence_example():
    rho = AtomicDensity.from_upper(0.5, 0.3 * np.exp(1j * np.pi / 4.0))
    dist = init_points(rho, CS)
    assert abs(dist.weights[0] - 0.6) <= 1e-12
    assert np.allclose(dist.weights, [0.6, 0.2, 0.2], atol=1e-12)
    assert np.abs(reconstruct_independent(dist, CS) - rho.matrix()).max() <= 1e-12


def test_random_densities_reconstruct(rng):
    for _ in range(100):
        p = rng.uniform(0.05, 0.95)
        r = rng.uniform(0.0, np.sqrt(0.99 * p * (1.0 - p)))
        phi = rng.uniform(-np.pi, np.pi)
        rho = AtomicDensity.from_upper(p, r * np.exp(1j * phi))
        dist = init_points(rho, CS)
        weights = dist.weights
        assert (weights >= 0.0).all() and abs(weights.sum() - 1.0) <= 1e-12
        assert np.abs(reconstruct_independent(dist, CS) - rho.matrix()).max() <= 1e-12


def test_boundary_population_errors():
    for p in (0.0, 1.0):
        rho = AtomicDensity(p + 0j, 0j, 0j, (1.0 - p) + 0j)
        with pytest.raises(BoundaryPopulationError):
            init_points(rho, CS)


def test_positivity_error_for_overlarge_coherence():
    # r^2 > p(1-p) violates positive semidefiniteness; q computes > 1
    rho = AtomicDensity(0.5 + 0j, 0.6 + 0j, 0.6 + 0j, 0.5 + 0j)
    with pytest.raises(PositivityError):
        init_points(rho, CS)


@pytest.mark.parametrize("family", [CS, ADD], ids=["coherent-spin", "additive-noise"])
def test_one_positivity_rule_for_validate_and_init_points(family):
    # the density of every engine and the three-point distribution of the
    # phase-space engines refuse the same densities, by q <= 1 + DENSITY_TOL
    p = 1e-6
    for excess, positive in ((5e-10, False), (1e-16 * p, True), (0.0, True)):
        r = (p * (1.0 - p) + excess) ** 0.5
        rho = AtomicDensity(p + 0j, r + 0j, r + 0j, (1.0 - p) + 0j)
        if positive:
            rho.validate()
            assert abs(init_points(rho, family).weights[0] - 1.0) <= 1e-12
        else:
            with pytest.raises(PositivityError):
                rho.validate()
            with pytest.raises(PositivityError):
                init_points(rho, family)
            with pytest.raises(PositivityError):
                AtomicDensity.from_upper(p, r)


def test_additive_noise_rejects_k_equal_one():
    # rho11 = 1/2 gives K = 1, unreachable for the additive-noise family
    rho = AtomicDensity.from_upper(0.5, 0.1)
    with pytest.raises(UnreachableTargetError):
        init_points(rho, ADD)


def test_near_boundary_population_additive_noise():
    # rho11 = 1e-30 puts the points within 1e-15 of a pole of h; the
    # distribution still reconstructs the density within the 1e-9 guard
    rho = AtomicDensity.from_upper(1e-30)
    dist = init_points(rho, ADD)
    assert np.abs(dist.reconstruct(ADD) - rho.matrix()).max() <= 1e-9


def test_hermiticity_and_trace_validation():
    with pytest.raises(ValueError):
        init_points(AtomicDensity(0.6 + 0j, 0.1 + 0j, 0.2 + 0j, 0.4 + 0j), CS)
    with pytest.raises(ValueError):
        init_points(AtomicDensity(0.6 + 0j, 0j, 0j, 0.6 + 0j), CS)


def test_sampling_converges_to_density(rng):
    rho = AtomicDensity.from_upper(0.62, 0.21 * np.exp(0.4j))
    dist = init_points(rho, CS)
    runs = 10_000
    zs, ws = dist.sample(rng, runs)
    points = np.stack([projector_2x2(CS, z, w) for z, w in zip(zs, ws)])
    mean = points.mean(axis=0)
    stderr = points.std(axis=0).max() / np.sqrt(runs)
    assert np.abs(mean - rho.matrix()).max() <= 4.0 * stderr + 1e-12
