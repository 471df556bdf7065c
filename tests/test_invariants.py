import numpy as np
import pytest

from ppcavity.invariants import _FAMILIES, _random_states, random_phase_state


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
