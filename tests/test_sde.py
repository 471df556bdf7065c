import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from ppcavity import sde
from ppcavity.errors import AllPathsDivergedError
from ppcavity.sde import (
    _DRAW_BLOCK,
    ObservableMap,
    TimeGrid,
    from_coefficients,
    path_generator,
    run_ensemble,
)

from helpers import ou_variance


def constant_noise_system(dim, matrix):
    matrix = np.asarray(matrix, dtype=complex)

    def noise(state):
        return np.broadcast_to(matrix, state.shape[:-1] + matrix.shape)

    return noise


def make_ou(lam=2.0, sigma=0.7):
    return from_coefficients(
        dim=1,
        noise_dim=1,
        drift=lambda x: -lam * x,
        noise=constant_noise_system(1, [[sigma]]),
    )


def single_path(system, init, grid, seed, names=("x",)):
    """States of one realization: run_ensemble with runs=1 records them exactly."""
    observables = {name: (lambda s, i=i: s[..., i]) for i, name in enumerate(names)}
    return run_ensemble(system, lambda rng: init, grid, 1, seed, observables).mean


def test_time_grid():
    grid = TimeGrid(0.0, 1.0, 4)
    assert grid.dt == 0.25
    assert np.allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 4)


def test_em_step_identity():
    system = from_coefficients(
        dim=2,
        noise_dim=1,
        drift=lambda x: np.zeros_like(x),
        noise=constant_noise_system(2, [[0.0], [0.0]]),
    )
    state = np.array([1.0 + 2.0j, -0.5j])
    out = single_path(system, state, TimeGrid(0.0, 0.1, 1), 3, names=("a", "b"))
    assert np.array_equal(out[1], state)


def test_em_step_scalar_decay():
    system = from_coefficients(
        dim=1,
        noise_dim=1,
        drift=lambda x: -2.0 * x,
        noise=constant_noise_system(1, [[0.0]]),
    )
    out = single_path(system, np.array([1.0 + 0j]), TimeGrid(0.0, 0.1, 1), 3)
    assert abs(out[1, 0] - 0.8) <= 1e-15


def test_ou_variance_matches_closed_form():
    lam, sigma = 2.0, 0.7
    grid = TimeGrid(0.0, 1.0, 400)
    runs = 10_000
    res = run_ensemble(
        make_ou(lam, sigma),
        lambda rng: np.zeros(1, complex),
        grid,
        runs,
        42,
        {"x": lambda s: s[..., 0]},
    )
    _, err = res.column("x")
    var_est = err**2 * res.runs_completed
    exact = ou_variance(sigma, lam, grid.times[-1])
    # standard error of a variance estimate ~ var * sqrt(2/R), plus Euler bias
    slack = 4.0 * exact * np.sqrt(2.0 / runs) + lam * grid.dt * exact
    assert abs(var_est[-1] - exact) <= slack


def test_linear_sde_mean(rng):
    lam = 1.5
    grid = TimeGrid(0.0, 1.0, 500)
    res = run_ensemble(
        make_ou(lam, 0.5),
        lambda rng_: np.ones(1, complex),
        grid,
        4000,
        7,
        {"x": lambda s: s[..., 0]},
    )
    mean, err = res.column("x")
    exact = np.exp(-lam * grid.times)
    # Euler mean bias: (1 - lam dt)^k vs exp(-lam t k)
    bias = np.abs(np.power(1.0 - lam * grid.dt, np.arange(grid.steps + 1)) - exact)
    assert (np.abs(mean.real - exact) <= 4.0 * err + bias + 1e-12).all()


def test_noise_free_path_equals_explicit_euler():
    lam = 0.8
    system = from_coefficients(
        dim=1,
        noise_dim=1,
        drift=lambda x: -lam * x,
        noise=constant_noise_system(1, [[0.0]]),
    )
    grid = TimeGrid(0.0, 1.0, 64)
    states = single_path(system, np.array([1.0 + 0j]), grid, 5)
    euler = (1.0 - lam * grid.dt) ** np.arange(grid.steps + 1)
    assert np.abs(states[:, 0] - euler).max() <= 1e-14


def test_path_determinism():
    grid = TimeGrid(0.0, 1.0, 128)
    p1 = single_path(make_ou(), np.array([1.0 + 0j]), grid, 99)
    p2 = single_path(make_ou(), np.array([1.0 + 0j]), grid, 99)
    assert np.array_equal(p1, p2)
    p3 = single_path(make_ou(), np.array([1.0 + 0j]), grid, 100)
    assert not np.array_equal(p3, p1)


def test_divergence_flagging():
    system = from_coefficients(
        dim=1,
        noise_dim=1,
        drift=lambda x: np.full_like(x, 1e9),
        noise=constant_noise_system(1, [[0.0]]),
    )
    grid = TimeGrid(0.0, 1.0, 8)
    # a one-step grid shows the path is flagged at its first step
    with pytest.raises(AllPathsDivergedError):
        single_path(system, np.zeros(1, complex), TimeGrid(0.0, grid.dt, 1), 1)
    with pytest.raises(AllPathsDivergedError):
        run_ensemble(
            system,
            lambda rng: np.zeros(1, complex),
            grid,
            4,
            0,
            {"x": lambda s: s[..., 0]},
        )


@pytest.mark.parametrize("chunk_size", [0, -1])
def test_run_ensemble_rejects_bad_chunk_size(chunk_size):
    with pytest.raises(ValueError, match="chunk_size must be >= 1"):
        run_ensemble(
            make_ou(),
            lambda rng: np.zeros(1, complex),
            TimeGrid(0.0, 1.0, 4),
            10,
            0,
            {"x": lambda s: s[..., 0]},
            chunk_size=chunk_size,
        )


@pytest.mark.parametrize(
    "init, shape", [(np.complex128(0.5), r"\(\)"), (np.zeros((1, 1), complex), r"\(1, 1\)")]
)
def test_run_ensemble_rejects_badly_shaped_initial_state(init, shape):
    with pytest.raises(ValueError, match=rf"vector of length 1, got shape {shape}"):
        run_ensemble(
            make_ou(),
            lambda rng: init,
            TimeGrid(0.0, 1.0, 4),
            3,
            0,
            {"x": lambda s: s[..., 0]},
        )


def test_single_run_has_zero_stderr():
    grid = TimeGrid(0.0, 1.0, 32)
    res = run_ensemble(
        make_ou(),
        lambda rng: np.ones(1, complex),
        grid,
        1,
        11,
        {"x": lambda s: s[..., 0]},
    )
    assert res.runs_completed == 1
    assert np.array_equal(res.stderr, np.zeros_like(res.stderr))
    # matches explicit Euler steps driven by the same stream (no init draw
    # used); a step adds one increment, drift dt + noise dW
    dws = path_generator(11, 0).standard_normal((grid.steps, 1)) * np.sqrt(grid.dt)
    state = 1.0 + 0j
    for k in range(grid.steps):
        state = state + (-2.0 * state * grid.dt + 0.7 * dws[k, 0])
        assert res.mean[k + 1, 0] == state


def test_reduction_is_worker_and_chunk_deterministic():
    grid = TimeGrid(0.0, 0.5, 64)
    kwargs = dict(grid=grid, runs=157, master_seed=4242, observables={"x": lambda s: s[..., 0]})
    base = run_ensemble(make_ou(), lambda rng: np.zeros(1, complex), chunk_size=157, **kwargs)
    for chunk in (13, 41):
        other = run_ensemble(make_ou(), lambda rng: np.zeros(1, complex), chunk_size=chunk, **kwargs)
        assert np.allclose(other.mean, base.mean, rtol=0, atol=1e-13)
        assert np.allclose(other.stderr, base.stderr, rtol=0, atol=1e-13)
    # identical arguments give bit-identical results
    again = run_ensemble(make_ou(), lambda rng: np.zeros(1, complex), chunk_size=157, **kwargs)
    assert np.array_equal(again.mean, base.mean)
    assert np.array_equal(again.stderr, base.stderr)


def check_against_one_shot_draws(grid, runs, seed, chunk_size):
    """An OU ensemble's moments equal those of paths rebuilt from their streams."""
    res = run_ensemble(
        make_ou(),
        lambda rng: np.ones(1, complex),
        grid,
        runs,
        seed,
        {"x": lambda s: s[..., 0], "x2": lambda s: s[..., 0] ** 2},
        chunk_size=chunk_size,
    )
    # rebuild every path from its stream: init draw is absent (deterministic
    # sampler), so explicit Euler steps with the per-path key reproduce it
    values = np.empty((runs, grid.steps + 1, 2), dtype=complex)
    for r in range(runs):
        gen = path_generator(seed, r)
        init = np.ones(1, complex)
        dws = gen.standard_normal((grid.steps, 1)) * np.sqrt(grid.dt)
        state = init
        values[r, 0] = [state[0], state[0] ** 2]
        for k in range(grid.steps):
            state = state - 2.0 * state * grid.dt + 0.7 * dws[k]
            values[r, k + 1] = [state[0], state[0] ** 2]
    mean = values.mean(axis=0)
    std = np.sqrt((np.abs(values - mean) ** 2).sum(axis=0) / (runs - 1) / runs)
    assert np.abs(res.mean - mean).max() <= 1e-12
    assert np.abs(res.stderr - std).max() <= 1e-12


def test_streaming_moments_match_direct_recomputation():
    check_against_one_shot_draws(TimeGrid(0.0, 1.0, 50), 64, 314, chunk_size=7)


def test_block_drawn_increments_match_one_shot_draws():
    # a grid longer than two draw blocks, ending inside a partial third one
    grid = TimeGrid(0.0, 1.0, 2 * _DRAW_BLOCK + 37)
    check_against_one_shot_draws(grid, 20, 2718, chunk_size=7)


def test_peak_memory_is_blocks_not_steps():
    grid = TimeGrid(0.0, 1.0, 8192)
    chunk = 128
    observables = {"x": lambda s: s[..., 0], "x2": lambda s: s[..., 0] ** 2}
    tracemalloc.start()
    try:
        run_ensemble(
            make_ou(),
            lambda rng: np.zeros(1, complex),
            grid,
            2 * chunk,
            5,
            observables,
            chunk_size=chunk,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block of observables per path, one checkpointed state per path and
    # block, and the per-point moments; a record of the chunk's observables
    # (34 MB here) or its increments for the whole grid (8 MB) would each
    # exceed the bound (3.7 MB)
    block_bytes = chunk * _DRAW_BLOCK * len(observables) * 16
    checkpoint_bytes = chunk * (grid.steps // _DRAW_BLOCK) * 16
    point_bytes = (grid.steps + 1) * len(observables) * 16
    assert peak <= 4 * block_bytes + 2 * checkpoint_bytes + 8 * point_bytes


def test_merging_a_block_allocates_at_most_a_quarter_block():
    # 256 paths and 64 observables over eight blocks (dt = 1); path 100 is
    # kicked over the threshold mid-block, so that block and every later one
    # reach the moments through the kept rows
    paths, width, b = 256, 64, _DRAW_BLOCK
    grid = TimeGrid(0.0, 8.0 * b, 8 * b)
    kick = 3 * b + 20

    def drift(s):
        a = np.empty_like(s)
        a[..., 0] = -0.5 * s[..., 0] + np.where(s[..., 1].real == kick - 1, 1e9, 0.0)
        a[..., 1] = 1.0
        return a

    system = from_coefficients(2, 1, drift, constant_noise_system(2, [[0.7], [0.0]]))
    weights = np.arange(1.0, width + 1)
    observables = ObservableMap(
        [f"x{k}" for k in range(width)],
        lambda s, out: np.multiply(s[..., :1], weights, out=out),
    )
    counter = itertools.count()

    def sampler(rng):
        return np.array([rng.standard_normal(), 0.0 if next(counter) == 100 else -1e3])

    # a first small run, so lazy imports are not traced
    run_ensemble(system, lambda rng: np.zeros(2, complex), TimeGrid(0.0, 2.0, 2), 2, 0, observables)
    tracemalloc.start()
    try:
        res = run_ensemble(system, sampler, grid, paths, 3, observables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.diverged_paths == (100,) and res.divergence_steps == (kick,)
    block = paths * b * width * 16
    buffers = block + paths * b * 8  # observables and increments
    checkpoints = (grid.steps // b) * paths * system.dim * 16
    moments = (grid.steps + 1) * (width * (16 + 8) + 8)
    # merging the whole block at once held a copy of its kept rows and their
    # moduli and squares besides it, two blocks more (16.8 MB here)
    assert peak <= buffers + checkpoints + moments + block // 4


def test_set_aside_blocks_are_replayed_not_kept(monkeypatch):
    # an OU of unit stationary variance observed as x**k, k = 1..16: in every
    # block, paths pass |x| = 1e6 ** (1 / 16) = 2.37 and are set aside, alive
    # with observables over the threshold
    paths, width, b = 256, 16, _DRAW_BLOCK
    powers = np.arange(1, width + 1)
    observables = ObservableMap(
        [f"x{k}" for k in powers], lambda s, out: np.power(s[..., :1], powers, out=out)
    )
    outside = []
    within = sde._within

    def counted_within(values, threshold):
        inside = within(values, threshold)
        outside.append(int((~inside).sum()))
        return inside

    def run(blocks, threshold=1e6):
        grid = TimeGrid(0.0, 0.05 * blocks * b, blocks * b)
        sampler = lambda rng: rng.standard_normal(1).astype(complex)  # noqa: E731
        return run_ensemble(
            make_ou(0.5, 1.0), sampler, grid, paths, 17, observables, divergence_threshold=threshold
        )

    run(1)  # so lazy imports are not traced
    monkeypatch.setattr(sde, "_within", counted_within)
    peaks = {}
    for blocks in (8, 32):
        outside.clear()
        tracemalloc.start()
        try:
            res = run(blocks)
            _, peaks[blocks] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert min(outside[: blocks - 1]) >= 10
    monkeypatch.undo()
    # 24 blocks more add one checkpointed state per path and block and the
    # moments of their points (0.6 MB in all); a kept copy of every set-aside
    # block (16 kB a path, 30-46 paths a block) would add 0.6 MB per block
    per_block = paths * 16 + b * (width * (16 + 8) + 8)
    assert peaks[32] - peaks[8] <= 24 * per_block + 2**19
    kept = run(32, threshold=np.inf)
    assert (np.abs(res.mean - kept.mean) <= 1e-12 * np.abs(kept.mean).max(axis=0)).all()
    assert (np.abs(res.stderr - kept.stderr) <= 1e-12 * kept.stderr.max(axis=0)).all()


def whole_block_moments(values):
    """The moments of a block reduced all at once, centring it in place."""
    mean = values.mean(axis=0)
    values -= mean
    return values.shape[0], mean, (np.abs(values) ** 2).sum(axis=0)


@pytest.mark.parametrize("points, width", [(1, 1), (2, 1), (17, 1), (33, 3), (_DRAW_BLOCK, 5)])
def test_slicewise_merge_equals_whole_block_merge(monkeypatch, points, width):
    # blocks with nan, inf and over-threshold rows and dead paths are screened,
    # moved and squared a slice of paths at a time (one slice for one point,
    # up to five for 64 points), and must give the moments of the whole-block
    # formulas bit for bit: the rows merged are values[kept], and each point's
    # sums run over the paths in order (numpy sums a (paths, 1, 1) block
    # pairwise, which only a single slice reproduces)
    rng = np.random.default_rng(100 * points + width)
    threshold = 50.0
    sliced, whole = sde._Moments(2 * points, width), sde._Moments(2 * points, width)
    for t, paths in [(0, 23), (points, 40), (points, 9)]:
        shape = (paths, points, width)
        values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.integers(
            -3, 2, (paths, 1, 1)
        )
        values[1::5, -1, 0] = np.nan
        values[2::5, 0, -1] = complex(0.0, np.inf)
        values[3::5, points // 2, width // 2] = 1.5 * threshold
        alive = rng.uniform(size=paths) < 0.9
        with np.errstate(all="ignore"):
            assert [whole_block_moments(values.copy())[k].tobytes() for k in (1, 2)] == [
                sde._block_moments(values.copy())[k].tobytes() for k in (1, 2)
            ]
        kept = alive & (np.abs(values) <= threshold).all(axis=(1, 2))
        assert np.array_equal(alive & sde._within(values, threshold), kept)
        selected = values[kept]
        leaving = selected[::3].copy()
        front = sde._to_front(values, kept)
        assert front.tobytes() == selected.tobytes()
        sliced.add(t, front)
        monkeypatch.setattr(sde, "_block_moments", whole_block_moments)
        whole.add(t, selected)
        whole.remove(t, leaving.copy())
        monkeypatch.undo()
        sliced.remove(t, leaving)
        for name in ("count", "mean", "m2"):
            assert getattr(sliced, name).tobytes() == getattr(whole, name).tobytes()


def dying_ou(lam=0.5, sigma=0.7):
    """OU in x, a clock c that moves by dt per step and three constants that
    mark the observable; the step taken from any point with c > -1 kicks x far
    over the threshold."""

    def drift(s):
        a = np.zeros_like(s)
        a[..., 0] = -lam * s[..., 0] + np.where(s[..., 1].real > -1.0, 1e9, 0.0)
        a[..., 1] = 1.0
        return a

    return from_coefficients(
        dim=5,
        noise_dim=1,
        drift=drift,
        noise=constant_noise_system(5, [[sigma], [0.0], [0.0], [0.0], [0.0]]),
    )


def observe_dying_ou(x, c, nan_at, big_at, big_exp):
    """x, x**2 and x made nan where c = nan_at and 10**big_exp larger where c = big_at."""
    c, nan_at, big_at, big_exp = np.real(c), np.real(nan_at), np.real(big_at), np.real(big_exp)
    odd = np.where(c == nan_at, np.nan, x) + np.where(c == big_at, 10.0**big_exp, 0.0)
    return np.stack(np.broadcast_arrays(x, x**2, odd), axis=-1)


@pytest.mark.parametrize("chunk_size", [1, 7, 64])
def test_dead_paths_leave_no_trace_in_the_moments(chunk_size):
    b = _DRAW_BLOCK
    grid = TimeGrid(0.0, 3 * b + 37.0, 3 * b + 37)  # dt = 1, a partial last block
    threshold, lam, sigma, seed = 1e4, 0.5, 0.7, 99
    # divergence step per path, 0 for a survivor: in block 0, mid-grid, at
    # the first step of a block (the last alive point ends the block before),
    # at the last step
    dies = [0, 3, 0, b + 17, 2 * b, 0, 3 * b, grid.steps, 0, 0, 2 * b + 5, 0]
    runs = len(dies)
    clock = np.array([1.0 - d if d else -1e3 for d in dies])
    nan_at, big_at, big_exp = np.full(runs, 0.5), np.full(runs, 0.5), np.zeros(runs)
    # while every state stays under the threshold, the third observable is
    # nan (path 6) or 1e200 (path 4) at the last alive point, which ends a
    # block, and 10**4.5 for survivors 2 and 9 in block 1 and at the last point
    nan_at[6] = big_at[4] = 0.0
    big_exp[4] = 200.0
    big_at[2], big_at[9] = clock[2] + b + 5, clock[9] + grid.steps
    big_exp[[2, 9]] = 4.5
    calls = []

    def sampler(rng):
        r = len(calls)
        calls.append(r)
        marks = [clock[r], nan_at[r], big_at[r], big_exp[r]]
        return np.array([rng.standard_normal(), *marks], dtype=complex)

    observables = ObservableMap(
        ("x", "x2", "odd"),
        lambda s, out: np.copyto(out, observe_dying_ou(*np.moveaxis(s, -1, 0))),
    )
    res = run_ensemble(
        dying_ou(lam, sigma),
        sampler,
        grid,
        runs,
        seed,
        observables,
        divergence_threshold=threshold,
        chunk_size=chunk_size,
    )
    assert calls == list(range(runs))
    assert res.chunk_size == min(chunk_size, runs)
    dead = [r for r in range(runs) if dies[r]]
    assert res.diverged_paths == tuple(dead)
    assert res.divergence_steps == tuple(dies[r] for r in dead)

    # the survivors rebuilt from one-shot draws of their streams
    values = []
    for r in range(runs):
        if dies[r]:
            continue
        gen = path_generator(seed, r)
        x = np.empty(grid.steps + 1)
        x[0] = gen.standard_normal()
        dws = gen.standard_normal(grid.steps) * np.sqrt(grid.dt)
        for k in range(grid.steps):
            x[k + 1] = x[k] - lam * x[k] * grid.dt + sigma * dws[k]
        values.append(observe_dying_ou(x, clock[r] + grid.times, nan_at[r], big_at[r], big_exp[r]))
    values = np.array(values)
    mean = values.mean(axis=0)
    stderr = np.sqrt((np.abs(values - mean) ** 2).sum(axis=0) / (len(values) - 1) / len(values))
    assert (np.abs(res.mean - mean) <= 1e-12 * np.abs(mean).max(axis=0)).all()
    assert (np.abs(res.stderr - stderr) <= 1e-12 * stderr.max(axis=0)).all()


def test_dead_paths_are_parked_and_survivors_do_not_move():
    # path 2 of 5 is kicked to 1e9, inf or nan at step b + 7 (dt = 1, its
    # clock counts the steps); from the next step on its row is held at 0,
    # where its drift is nan, so it is parked again every step; the
    # survivors' moments are the same bit for bit whatever the kick
    b, lam, sigma = _DRAW_BLOCK, 0.5, 0.7
    grid = TimeGrid(0.0, b + 20.0, b + 20)
    results = []
    for kick in (1e9, np.inf, np.nan):
        seen = []

        def drift(s, kick=kick):
            seen.append(s.copy())
            x, clock = s[..., 0], s[..., 1].real
            a = np.empty_like(s)
            a[..., 0] = -lam * x + np.where(clock == b + 6, kick, 0.0)
            a[..., 0] += np.where((s == 0).all(axis=-1), np.nan, 0.0)
            a[..., 1] = 1.0
            return a

        system = from_coefficients(2, 1, drift, constant_noise_system(2, [[sigma], [0.0]]))
        counter = itertools.count()

        def sampler(rng):
            return np.array([rng.standard_normal(), 0.0 if next(counter) == 2 else -1e3])

        res = run_ensemble(system, sampler, grid, 5, 17, {"x": lambda s: s[..., 0]})
        assert res.diverged_paths == (2,) and res.divergence_steps == (b + 7,)
        # the forward pass (then the replay of block 0 for path 2 alone)
        forward = [s for s in seen if s.shape[0] == 5]
        assert len(forward) == grid.steps
        assert np.isfinite(forward[b + 6]).all() and not abs(forward[b + 7][2, 0]) <= 1e6
        assert all((s[2] == 0).all() for s in forward[b + 8 :])
        results.append(res)
    for res in results[1:]:
        assert np.array_equal(res.mean, results[0].mean)
        assert np.array_equal(res.stderr, results[0].stderr)


def test_divergence_steps_are_first_crossings():
    # path r starts at r - 5 and moves by +1 per unit step; |x| > 6 first
    # holds at step 12 - r for 4 <= r <= 11 and at step 1 beyond (|x| = 6
    # itself, as path 4 reaches at step 7, is kept)
    counter = itertools.count()
    system = from_coefficients(
        dim=1,
        noise_dim=1,
        drift=lambda x: np.ones_like(x),
        noise=constant_noise_system(1, [[0.0]]),
    )
    res = run_ensemble(
        system,
        lambda rng: np.array([next(counter) - 5.0], dtype=complex),
        TimeGrid(0.0, 8.0, 8),
        16,
        1,
        {"x": lambda s: s[..., 0]},
        divergence_threshold=6.0,
        chunk_size=5,
    )
    assert res.diverged_paths == tuple(range(4, 16))
    assert res.divergence_steps == (8, 7, 6, 5, 4, 3, 2, 1, 1, 1, 1, 1)
    # the survivors 0..3 start at -5..-2
    assert np.array_equal(res.mean[:, 0], -3.5 + np.arange(9.0))


def test_non_finite_state_diverges_at_its_step():
    system = from_coefficients(
        dim=1,
        noise_dim=1,
        drift=lambda x: np.where(x.real >= 2.0, np.nan, 1.0) + 0j,
        noise=constant_noise_system(1, [[0.0]]),
    )
    counter = itertools.count()
    res = run_ensemble(
        system,
        lambda rng: np.array([float(next(counter))], dtype=complex),
        TimeGrid(0.0, 2.0, 2),
        3,
        1,
        {"x": lambda s: s[..., 0]},
    )
    # path r starts at r and moves by +1 per step until it reaches 2; the
    # step after that makes it nan, so path 0 survives both steps
    assert res.diverged_paths == (1, 2)
    assert res.divergence_steps == (2, 1)


def test_divergence_latch_reads_the_modulus():
    # x moves by its own velocity v (the second coordinate) per unit step.
    # Path 0 reaches re = im = 0.75 T at step 3, where |x| > T although
    # both parts are under T; path 1 ends at re = im = 0.7 T, both parts
    # above T / 2, with |x| just under T; path 2 starts beyond T, is dead
    # from step 1 on and is then parked at 0
    threshold = 4.0
    velocities = (0.25 * threshold * (1 + 1j), 0.175 * threshold * (1 + 1j), 0.0)
    starts = (0.0, 0.0, 2.5 * threshold)
    system = from_coefficients(
        dim=2,
        noise_dim=1,
        drift=lambda s: np.stack([s[..., 1], np.zeros_like(s[..., 1])], axis=-1),
        noise=constant_noise_system(2, [[0.0], [0.0]]),
    )
    steps = 4
    # the exact rule: the first step at which |x| exceeds the threshold
    exact = {
        r: next((k for k in range(1, steps + 1) if abs(x0 + k * v) > threshold), None)
        for r, (x0, v) in enumerate(zip(starts, velocities))
    }
    assert exact == {0: 3, 1: None, 2: 1}
    for runs in (2, 3):
        counter = itertools.count()

        def sample(rng):
            r = next(counter)
            return np.array([starts[r], velocities[r]], dtype=complex)

        res = run_ensemble(
            system,
            sample,
            TimeGrid(0.0, float(steps), steps),
            runs,
            1,
            {"x": lambda s: s[..., 0]},
            divergence_threshold=threshold,
        )
        dead = {r: d for r, d in exact.items() if r < runs and d is not None}
        assert res.diverged_paths == tuple(dead)
        assert res.divergence_steps == tuple(dead.values())
        assert np.array_equal(res.mean[:, 0], velocities[1] * np.arange(steps + 1.0))


def test_observable_map_from_mapping():
    m = ObservableMap.from_mapping({"a": lambda s: s[..., 0], "b": lambda s: 2 * s[..., 1]})
    out = m.batch(np.array([[1.0 + 0j, 3.0]]))
    assert m.names == ("a", "b")
    assert np.allclose(out, [[1.0, 6.0]])


def test_chunk_state_is_coordinate_major_and_so_are_its_checkpoints():
    # every function sees the .T view of a (dim, paths) C-order state, and
    # the state at the first point of each block is kept as (dim, paths)
    paths, steps = 5, 2 * _DRAW_BLOCK + 7
    noise = constant_noise_system(3, [[1.0], [0.5j], [0.0]])
    system = from_coefficients(3, 1, lambda x: -0.5 * x, noise)
    seen = []

    def prepare(state):
        assert state.shape == (paths, 3) and state.T.flags.c_contiguous
        seen.append(state.copy())
        return state

    system = dataclasses.replace(system, prepare=prepare)
    observables = ObservableMap(["x0"], lambda s, out: np.copyto(out, s[..., :1]))
    inits = np.arange(15.0).reshape(paths, 3) + 1j

    def draw(out):
        out[...] = 0.1

    alive, survived, checkpoints = sde._integrate_chunk(
        system, inits, steps, 0.01, draw, observables, 1e6, lambda t, values, alive: None
    )
    assert alive.all() and (survived == steps).all()
    assert checkpoints.shape == (3, 3, paths)
    for b in range(3):
        assert np.array_equal(checkpoints[b], seen[b * _DRAW_BLOCK].T)
