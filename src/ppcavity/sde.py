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
Chunks run one after another and merge into one set of per-point moments in
ascending path order, so statistics do not depend on scheduling, and a single
realization is ``run_ensemble(..., runs=1)``.  Nothing holds a record of paths
x steps: a chunk draws its Wiener increments and buffers its observables
``_DRAW_BLOCK`` points at a time, merges each full block into the moments, and
keeps one state per path and block from which the paths that diverge are
replayed and taken out of the moments again when the chunk ends.
``TimeGrid`` also serves the deterministic engines, and the classical RK4
generator ``rk4_states`` serves ``maxwell_bloch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import AllPathsDivergedError

DEFAULT_DIVERGENCE_THRESHOLD = 1e6
_DEFAULT_CHUNK = 1024
# points per block: a chunk draws its Wiener increments, buffers its
# observables, checkpoints its state and merges its moments this many points
# at a time; Philox streams are sequential and the moments are per point, so
# the numbers do not depend on it
_DRAW_BLOCK = 64


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
    one first left the finite, under-threshold region.  ``chunk_size`` is the
    widest chunk that ran: results are reproducible bit for bit at a fixed
    seed and chunk size.
    """

    grid: TimeGrid
    names: tuple[str, ...]
    mean: np.ndarray
    stderr: np.ndarray
    runs_requested: int
    runs_diverged: int
    diverged_paths: tuple[int, ...]
    divergence_steps: tuple[int, ...]
    chunk_size: int

    @property
    def runs_completed(self) -> int:
        return self.runs_requested - self.runs_diverged

    def column(self, name: str):
        j = self.names.index(name)
        return self.mean[:, j], self.stderr[:, j]


def _integrate_chunk(system, state, steps, dt, draw, observable_map, threshold, on_block):
    """Vectorized Euler-Maruyama over one batch of paths.

    Returns the alive mask, the number of steps each path survived and the
    state at the first point of every block that has a step after it, shape
    (blocks, paths, dim).  Paths are latched dead on the first non-finite or
    over-threshold state.  At the first step of every block, ``draw(out)``
    fills ``out`` (paths, rows, m) with standard normals for the next rows
    steps.  The observables of each point go to a (paths, ``_DRAW_BLOCK``,
    observables) buffer; when it is full, or the grid ends, ``on_block(t,
    values, alive)`` receives the points from t on and the alive mask at the
    last of them, and may overwrite ``values``.  Each step prepares the new
    state once; the observables at that point and the next drift and noise
    read the prepared value.  Constant noise is one (dim, m) matrix applied to
    all paths by one real-by-complex product.
    """
    sqrt_dt = np.sqrt(dt)
    state = np.array(state, dtype=complex)
    n_paths = state.shape[0]
    alive = np.ones(n_paths, dtype=bool)
    survived = np.zeros(n_paths, dtype=np.int64)
    dws = np.empty((n_paths, min(_DRAW_BLOCK, steps), system.noise_dim))
    values = np.empty((n_paths, min(_DRAW_BLOCK, steps + 1), len(observable_map.names)), complex)
    checkpoints = np.empty((-(-steps // _DRAW_BLOCK), n_paths, system.dim), dtype=complex)

    with np.errstate(all="ignore"):
        prepared = system.prepare(state)
        values[:, 0, :] = observable_map.batch(prepared)
        if system.constant_noise:
            # the same matrix for every path: keep the first one
            noise = np.asarray(system.noise(prepared), dtype=complex)
            noise_t = noise.reshape(-1, system.dim, system.noise_dim)[0].T
        for k in range(steps):
            j = k % _DRAW_BLOCK
            if j == 0:
                checkpoints[k // _DRAW_BLOCK] = state
                rows = min(_DRAW_BLOCK, steps - k)
                draw(dws[:, :rows])
                dws[:, :rows] *= sqrt_dt
            a = np.asarray(system.drift(prepared), dtype=complex)
            if system.constant_noise:
                kick = dws[:, j] @ noise_t
            else:
                b = np.asarray(system.noise(prepared), dtype=complex)
                kick = (b @ dws[:, j, :, None].astype(complex))[..., 0]
            state = state + a * dt + kick
            # |x| <= sqrt(2) max(|Re x|, |Im x|), so no path can cross while
            # every part is within threshold / 2; nan and inf fail the screen
            if not np.abs(state.view(float)).max() <= 0.5 * threshold:
                alive &= (np.abs(state) <= threshold).all(axis=-1)
            survived += alive
            prepared = system.prepare(state)
            i = (k + 1) % _DRAW_BLOCK
            values[:, i, :] = observable_map.batch(prepared)
            if i == _DRAW_BLOCK - 1:
                on_block(k + 2 - _DRAW_BLOCK, values, alive)
        rows = (steps + 1) % _DRAW_BLOCK
        if rows:
            on_block(steps + 1 - rows, values[:, :rows], alive)
    return alive, survived, checkpoints


def _block_moments(values):
    """Path count, mean and summed squared deviation over the first axis.

    Centres ``values`` in place, so no temporary is the size of the block.
    """
    mean = values.mean(axis=0)
    values -= mean
    return values.shape[0], mean, (np.abs(values) ** 2).sum(axis=0)


class _Moments:
    """Per-point path count, mean and summed squared deviation of the observables.

    Blocks of points enter through ``add`` and leave through ``remove``, the
    pairwise variance-combination rule and its inverse; all points of a
    block share one count.  Both centre their argument in place.
    """

    def __init__(self, points, width):
        self.count = np.zeros(points, dtype=np.int64)
        self.mean = np.zeros((points, width), dtype=complex)
        self.m2 = np.zeros((points, width))

    def add(self, t, values):
        """Merge the moments over paths of ``values`` into the points from t on."""
        if len(values) == 0:
            return
        block = slice(t, t + values.shape[1])
        n_b, mean_b, m2_b = _block_moments(values)
        n_a = int(self.count[t])
        if n_a == 0:
            self.mean[block], self.m2[block] = mean_b, m2_b
        else:
            n = n_a + n_b
            delta = mean_b - self.mean[block]
            self.mean[block] += delta * (n_b / n)
            self.m2[block] = self.m2[block] + m2_b + np.abs(delta) ** 2 * (n_a * n_b / n)
        self.count[block] = n_a + n_b

    def remove(self, t, values):
        """Take paths that ``add`` merged into the points from t on out again."""
        if len(values) == 0:
            return
        block = slice(t, t + values.shape[1])
        n_b, mean_b, m2_b = _block_moments(values)
        n = int(self.count[t])
        n_a = n - n_b
        self.count[block] = n_a
        if n_a == 0:
            self.mean[block], self.m2[block] = 0.0, 0.0
            return
        self.mean[block] += (self.mean[block] - mean_b) * (n_b / n_a)
        delta = mean_b - self.mean[block]
        self.m2[block] -= m2_b + np.abs(delta) ** 2 * (n_a * n_b / n)


def _remove_dead(
    system, dt, observables, threshold, checkpoints, dead, streams, skipped, moments
):
    """Replay the blocks the dead paths entered and take them out of ``moments``.

    ``dead`` maps each diverged path to the step at which it diverged.  A
    path that first diverges at step d was alive at the last point of every
    block that ends before point d, and entered each of them that it was not
    ``skipped`` in.  Those blocks run from their ``checkpoints`` for one block
    less a step, as many at once as the chunk has paths, on increments drawn
    again from each path's stream restored to its ``streams`` snapshot.
    """
    entries = [(p, b) for p, d in dead.items() for b in range(d // _DRAW_BLOCK)]
    gens = {p: np.random.Generator(np.random.Philox()) for p in dead}
    for p, gen in gens.items():
        gen.bit_generator.state = streams[p]
    for i in range(0, len(entries), checkpoints.shape[1]):
        batch = entries[i : i + checkpoints.shape[1]]
        # a path's blocks come in order, so its stream is read in order
        normals = np.stack(
            [gens[p].standard_normal((_DRAW_BLOCK, system.noise_dim)) for p, _ in batch]
        )

        def draw(out):
            out[...] = normals[:, : _DRAW_BLOCK - 1]

        def remove(t, values, alive):
            for b in sorted({b for _, b in batch}):
                rows = [j for j, (p, c) in enumerate(batch) if c == b and (p, b) not in skipped]
                moments.remove(b * _DRAW_BLOCK, values[rows])

        inits = np.stack([checkpoints[b, p] for p, b in batch])
        _integrate_chunk(system, inits, _DRAW_BLOCK - 1, dt, draw, observables, threshold, remove)


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
    ``chunk_size`` paths run in turn.  Each ``_DRAW_BLOCK``-point block of a
    chunk is merged into the per-point moments, with the pairwise
    variance-combination rule, over the paths alive at its last point whose
    observables in it are finite and within ``divergence_threshold`` in
    modulus; a live path's other blocks wait aside.  After the chunk, the
    paths that diverged are replayed block by block from the chunk's state
    checkpoints and taken out, and the waiting blocks of the survivors are
    merged in, so the moments are those of the surviving paths.  Memory is
    one block of increments and observables per path plus one state per path
    and block: nothing holds paths x steps observables.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if not isinstance(observables, ObservableMap):
        observables = ObservableMap.from_mapping(observables)
    names = observables.names
    moments = _Moments(grid.steps + 1, len(names))
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
        streams = [g.bit_generator.state for g in gens]
        waiting: list[tuple[int, int, np.ndarray]] = []

        def draw(out):
            for dw, gen in zip(out, gens):
                gen.standard_normal(out=dw)

        def merge_block(t, values, alive):
            kept = alive & (np.abs(values) <= divergence_threshold).all(axis=(1, 2))
            waiting.extend((t, p, values[p].copy()) for p in np.flatnonzero(alive & ~kept))
            moments.add(t, values if kept.all() else values[kept])

        alive, survived, checkpoints = _integrate_chunk(
            system, inits, grid.steps, grid.dt, draw, observables, divergence_threshold, merge_block
        )
        dead = {int(p): int(survived[p]) + 1 for p in np.flatnonzero(~alive)}
        diverged.extend(start + p for p in dead)
        divergence_steps.extend(dead.values())
        with np.errstate(all="ignore"):
            skipped = {(p, t // _DRAW_BLOCK) for t, p, _ in waiting}
            _remove_dead(
                system,
                grid.dt,
                observables,
                divergence_threshold,
                checkpoints,
                dead,
                streams,
                skipped,
                moments,
            )
            for t in sorted({t for t, p, _ in waiting if alive[p]}):
                moments.add(t, np.stack([v for s, p, v in waiting if s == t and alive[p]]))

    total = runs - len(diverged)
    if total == 0:
        raise AllPathsDivergedError(f"all {runs} requested paths diverged")
    if total > 1:
        stderr = np.sqrt(moments.m2 / (total - 1) / total)
    else:
        stderr = np.zeros(moments.m2.shape)
    return EnsembleResult(
        grid=grid,
        names=names,
        mean=moments.mean,
        stderr=stderr,
        runs_requested=runs,
        runs_diverged=runs - total,
        diverged_paths=tuple(diverged),
        divergence_steps=tuple(divergence_steps),
        chunk_size=min(chunk_size, runs),
    )
