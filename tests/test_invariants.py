import numpy as np
import pytest

from ppcavity.invariants import (
    _FAMILIES,
    DEFAULT_SEED,
    _factorization_error,
    _random_states,
    check_factorization_dissipative,
    check_mb_drift_identity,
    random_phase_state,
    random_rates,
    sample_model,
)
from ppcavity.maxwell_bloch import mb_rhs
from ppcavity.physical import drift_bar, join_phys


def same_state(a, b):
    """Bit-generator states (nested dicts of arrays and scalars) are equal."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("count", [1, 7, 100])
@pytest.mark.parametrize("n_modes", [1, 2])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_batched_draws_equal_one_point_at_a_time(family, n_modes, count):
    # at scale 6 the additive-noise families reject about half their
    # candidates, so a batch falls short and a second one is drawn
    for scale in (0.5, 6.0):
        key = np.array([count, n_modes], dtype=np.uint64)
        batched = np.random.Generator(np.random.Philox(key=key))
        one_by_one = np.random.Generator(np.random.Philox(key=key))
        states = _random_states(batched, _FAMILIES[family], n_modes, count, scale)
        want = [random_phase_state(one_by_one, _FAMILIES[family], n_modes, scale) for _ in range(count)]
        assert np.array_equal(states, np.stack(want))
        assert same_state(batched.bit_generator.state, one_by_one.bit_generator.state)


def _factorization_dissipative_per_point(rng, points):
    """``check_factorization_dissipative`` one point and one model at a time."""
    worst = 0.0
    for fam in _FAMILIES.values():
        for _ in range(points):
            params = sample_model(**random_rates(rng))
            state = random_phase_state(rng, fam, params.mode_count)
            # a batch of one: on a bare vector numpy's scalar math rounds
            # apart from its array loops
            worst = max(worst, _factorization_error(params, fam, state[None]))
    return worst, 1e-12


def _mb_drift_identity_per_point(rng, points):
    """``check_mb_drift_identity`` with ``drift_bar`` one point at a time."""
    params = sample_model(**random_rates(rng))
    n = params.mode_count
    worst = 0.0
    for _ in range(points):
        eps = rng.standard_normal(n)
        eta = rng.standard_normal(n)
        rho21 = complex(*(0.3 * rng.standard_normal(2)))
        phys = join_phys(eps, eta, rho21, np.conj(rho21), rng.uniform(-1, 1))
        deriv = mb_rhs(params, phys)
        worst = max(worst, np.abs(deriv - drift_bar(params, phys[None])[0]).max())
    return worst, 1e-13


@pytest.mark.parametrize("points", [1, 7, 100])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 5])
@pytest.mark.parametrize(
    "check, per_point",
    [
        (check_factorization_dissipative, _factorization_dissipative_per_point),
        (check_mb_drift_identity, _mb_drift_identity_per_point),
    ],
    ids=["factorization-dissipative", "mb-drift-bar-identity"],
)
def test_stacked_checks_equal_one_point_at_a_time(check, per_point, seed, points):
    key = np.array([seed, points], dtype=np.uint64)
    stacked = np.random.Generator(np.random.Philox(key=key))
    one_by_one = np.random.Generator(np.random.Philox(key=key))
    got, want = check(stacked, points), per_point(one_by_one, points)
    assert np.float64(got[0]).view(np.uint64) == np.float64(want[0]).view(np.uint64)
    assert got[1] == want[1]
    assert same_state(stacked.bit_generator.state, one_by_one.bit_generator.state)
