"""Euler-Maruyama integration of complex Ito SDEs with real Wiener increments.

The integrator works on flat complex state vectors.  Drift and noise callables
must broadcast over a leading batch axis: drift maps (..., n) -> (..., n) and
noise maps (..., n) -> (..., n, m).  A system may also set ``prepare``: the
integrator calls it once per step on the new state, and drift, noise and the
observable batch all receive its result in place of the raw state, so work
they share is done once per step (``jc_sde_system`` prepares the state with
its basis jet).  ``run_ensemble`` is the only entry point
and ``_integrate_chunk`` the only stepping loop: ensembles are executed in
path chunks so that realizations vectorize, while every path still owns an
independent counter-based random stream keyed by (master_seed, path_index).
Chunks run one after another and their moments are merged in ascending path
order, so statistics do not depend on scheduling, and a single realization is
``run_ensemble(..., runs=1)``.  A chunk draws its Wiener increments
``_DRAW_BLOCK`` steps at a time into one reused buffer and reduces its record
one time block at a time, so an ensemble's peak memory is one chunk's
observable record plus O(chunk x block), whatever the number of runs.
``TimeGrid`` and the classical RK4 generator ``rk4_states`` also serve the
deterministic engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import AllPathsDivergedError

DEFAULT_DIVERGENCE_THRESHOLD = 1e6
_DEFAULT_CHUNK = 256
# steps per block: a chunk draws its Wiener increments and reduces its record
# this many steps at a time; Philox streams are sequential and the reduction
# sums over paths, so the numbers do not depend on it
_DRAW_BLOCK = 256


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant integration grid with steps+1 points on [t_start, t_end]."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if int(self.steps) != self.steps or self.steps < 1:
            raise ValueError("steps must be a positive integer")
        object.__setattr__(self, "steps", int(self.steps))
        if not self.t_end > self.t_start:
            raise ValueError("need t_end > t_start")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.steps + 1)


def rk4_states(rhs: Callable[[Any], Any], y0, grid: TimeGrid) -> Iterator:
    """Classical fixed-step RK4 of dy/dt = rhs(y) from ``y0`` over ``grid``.

    Yields the state after each of the ``grid.steps`` steps, so the caller
    records or checks it before the next step is taken.
    """
    dt = grid.dt
    y = y0
    for _ in range(grid.steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield y


def _identity(state):
    return state


@dataclass(frozen=True)
class SdeSystem:
    """Ito SDE dX = drift(X) dt + noise(X) dW with m real Wiener components.

    ``constant_noise`` marks systems whose noise matrix does not depend on the
    state, letting the integrator evaluate it once per chunk.  ``prepare``
    maps a (batched) state to the value that drift, noise and the observable
    batch receive; it runs once per step, so work they share (such as basis
    functions of the state) is done once.  It defaults to the identity.
    """

    dim: int
    noise_dim: int
    drift: Callable[[Any], np.ndarray]
    noise: Callable[[Any], np.ndarray]
    constant_noise: bool = False
    prepare: Callable[[np.ndarray], Any] = _identity


class ObservableMap:
    """Named observables evaluated in one batched call per time step."""

    def __init__(self, names: Sequence[str], batch: Callable[[np.ndarray], np.ndarray]):
        self.names = tuple(names)
        self.batch = batch

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Callable]) -> "ObservableMap":
        names = tuple(mapping)
        fns = tuple(mapping[name] for name in names)

        def batch(state):
            return np.stack(
                [np.asarray(f(state), dtype=complex) for f in fns], axis=-1
            )

        return cls(names, batch)


def path_generator(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for path ``index``; independent of scheduling."""
    master_seed = int(master_seed)
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in an unsigned 64-bit integer")
    key = np.array([master_seed, int(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EnsembleResult:
    """Per-observable ensemble means and standard errors on a time grid.

    ``stderr`` is the standard error of the complex sample mean, computed
    from the total (real plus imaginary) variance of the completed runs.
    Diverged paths are excluded from the statistics and listed by index;
    ``divergence_steps`` gives, in the same order, the grid step at which each
    one first left the finite, under-threshold region.
    """

    grid: TimeGrid
    names: tuple[str, ...]
    mean: np.ndarray
    stderr: np.ndarray
    runs_requested: int
    runs_diverged: int
    diverged_paths: tuple[int, ...]
    divergence_steps: tuple[int, ...]

    @property
    def runs_completed(self) -> int:
        return self.runs_requested - self.runs_diverged

    def column(self, name: str):
        j = self.names.index(name)
        return self.mean[:, j], self.stderr[:, j]


def _integrate_chunk(system, inits, grid, gens, observable_map, threshold):
    """Vectorized Euler-Maruyama over one chunk of paths.

    Returns the (paths, points, observables) value array, the alive mask and
    the number of steps each path survived.  Paths are latched dead on the
    first non-finite or over-threshold state.  Every ``_DRAW_BLOCK`` steps,
    each path's next increments are drawn from its generator in ``gens`` into
    one reused buffer.  Each step prepares the new state once; the
    observables at that point and the next drift and noise read the prepared
    value.  Constant noise is one (dim, m) matrix applied to all paths by one
    real-by-complex product.
    """
    steps, dt = grid.steps, grid.dt
    sqrt_dt = np.sqrt(dt)
    state = np.array(inits, dtype=complex)
    n_paths = state.shape[0]
    alive = np.ones(n_paths, dtype=bool)
    survived = np.zeros(n_paths, dtype=np.int64)
    dws = np.empty((n_paths, min(_DRAW_BLOCK, steps), system.noise_dim))

    with np.errstate(all="ignore"):
        values = np.empty((n_paths, steps + 1, len(observable_map.names)), dtype=complex)
        prepared = system.prepare(state)
        values[:, 0, :] = observable_map.batch(prepared)
        if system.constant_noise:
            # the same matrix for every path: keep the first one
            noise = np.asarray(system.noise(prepared), dtype=complex)
            noise_t = noise.reshape(-1, system.dim, system.noise_dim)[0].T
        for k in range(steps):
            j = k % _DRAW_BLOCK
            if j == 0:
                rows = min(_DRAW_BLOCK, steps - k)
                for dw, gen in zip(dws, gens):
                    gen.standard_normal(out=dw[:rows])
                dws[:, :rows] *= sqrt_dt
            a = np.asarray(system.drift(prepared), dtype=complex)
            if system.constant_noise:
                kick = dws[:, j] @ noise_t
            else:
                b = np.asarray(system.noise(prepared), dtype=complex)
                kick = (b @ dws[:, j, :, None].astype(complex))[..., 0]
            state = state + a * dt + kick
            alive &= (np.abs(state) <= threshold).all(axis=-1)
            survived += alive
            prepared = system.prepare(state)
            values[:, k + 1, :] = observable_map.batch(prepared)
    return values, alive, survived


def _chunk_moments(values):
    """Mean and summed squared deviation over paths, one time block at a time.

    Centres ``values`` in place; no temporary is the size of the record.
    """
    mean = np.empty(values.shape[1:], dtype=complex)
    m2 = np.empty(values.shape[1:])
    for t in range(0, values.shape[1], _DRAW_BLOCK):
        block = values[:, t : t + _DRAW_BLOCK]
        mean[t : t + _DRAW_BLOCK] = block.mean(axis=0)
        block -= mean[t : t + _DRAW_BLOCK]
        m2[t : t + _DRAW_BLOCK] = (np.abs(block) ** 2).sum(axis=0)
    return mean, m2


def _merge_moments(n_a, mean_a, m2_a, n_b, mean_b, m2_b):
    if n_a == 0:
        return n_b, mean_b, m2_b
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + np.abs(delta) ** 2 * (n_a * n_b / n)
    return n, mean, m2


def run_ensemble(
    system: SdeSystem,
    init_sampler: Callable[[np.random.Generator], np.ndarray],
    grid: TimeGrid,
    runs: int,
    master_seed: int,
    observables,
    *,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
    chunk_size: int = _DEFAULT_CHUNK,
) -> EnsembleResult:
    """Monte-Carlo ensemble of independent realizations.

    Path r draws its initial state and then its Wiener increments from the
    stream keyed by (master_seed, r), so results are reproducible.  Chunks of
    ``chunk_size`` paths run in turn; each chunk's moments are merged at once,
    in ascending path order, with the pairwise variance-combination rule.
    Peak memory is one chunk's observable record, paths x (steps + 1) x
    observables complex values, plus one draw block of increments: no record
    outlives its chunk.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if not isinstance(observables, ObservableMap):
        observables = ObservableMap.from_mapping(observables)
    names = observables.names
    shape = (grid.steps + 1, len(names))

    total = 0
    mean = np.zeros(shape, dtype=complex)
    m2 = np.zeros(shape)
    diverged: list[int] = []
    divergence_steps: list[int] = []
    for start in range(0, runs, chunk_size):
        stop = min(start + chunk_size, runs)
        gens = [path_generator(master_seed, r) for r in range(start, stop)]
        inits = np.stack([np.asarray(init_sampler(g), dtype=complex) for g in gens])
        if inits.shape[1:] != (system.dim,):
            raise ValueError(
                f"init_sampler must return a vector of length {system.dim}, "
                f"got shape {inits.shape[1:]}"
            )
        values, alive, survived = _integrate_chunk(
            system, inits, grid, gens, observables, divergence_threshold
        )
        # reduce with no record-sized copy, whether or not a path died, then
        # free the record before the next chunk: the survivors move to the
        # front in place, giving the same contiguous rows as values[alive]
        kept = np.flatnonzero(alive)
        if kept.size < alive.size:
            for row, path in enumerate(kept):
                values[row] = values[path]
            values = values[: kept.size]
        if values.shape[0]:
            c_mean, c_m2 = _chunk_moments(values)
            total, mean, m2 = _merge_moments(total, mean, m2, values.shape[0], c_mean, c_m2)
        dead = np.flatnonzero(~alive)
        diverged.extend(int(start + i) for i in dead)
        divergence_steps.extend(int(survived[i]) + 1 for i in dead)
        del values

    if total == 0:
        raise AllPathsDivergedError(f"all {runs} requested paths diverged")
    if total > 1:
        stderr = np.sqrt(m2 / (total - 1) / total)
    else:
        stderr = np.zeros(shape)
    return EnsembleResult(
        grid=grid,
        names=names,
        mean=mean,
        stderr=stderr,
        runs_requested=runs,
        runs_diverged=runs - total,
        diverged_paths=tuple(diverged),
        divergence_steps=tuple(divergence_steps),
    )
