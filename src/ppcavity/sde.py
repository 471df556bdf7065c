"""Euler-Maruyama ensembles of complex Ito SDEs with real Wiener increments.

:class:`SdeSystem` states the step contract and :func:`run_ensemble` the
ensemble algorithm; ``TimeGrid`` also serves the deterministic engines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import AllPathsDivergedError

DEFAULT_DIVERGENCE_THRESHOLD = 1e6
_DEFAULT_CHUNK = 1024
#: points per block of :func:`run_ensemble`; Philox streams are sequential and the
#: moments per point, so the numbers do not depend on it
_DRAW_BLOCK = 64
#: points whose values a slice of a merged block holds; the moments do not depend on it
_MERGE_SLICE = 16


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


def _identity(state):
    return state


@dataclass(frozen=True)
class SdeSystem:
    """Ito SDE dX = drift(X) dt + noise(X) dW with m real Wiener components.

    ``increment(prepared, dt, dw)``, drift dt + noise @ dw for real ``dw``
    (..., m), is the one coefficient call of a step; ``drift`` and ``noise``
    serve checks, and :func:`from_coefficients` builds a system from them.
    ``prepare`` (the identity by default) maps each new state, once, to the
    value that the increment and the observable batch receive, so work they
    share, such as a basis jet, is done once per step.

    Error-state rule: what the stepping loop calls runs under its
    ``np.errstate(all="ignore")`` and sets none of its own; a public entry
    point that calls it, such as ``physical.noise_bar``, sets its own.

    Binding contract: per chunk, the stepping loop binds ``prepare``,
    ``increment`` and the observable map's ``batch`` to what stays fixed in
    it (the state's memory, ``dt`` and the block buffers), and each step calls
    only the bound forms.  A callable that carries a ``bind`` attribute
    (:func:`bindable`) binds itself: ``prepare.bind(state)`` gives
    ``prepare()``, the prepared value of the current (paths, dim) ``state``,
    which the loop updates in place; ``increment.bind(state, dt, dws)`` gives
    ``increment(prepared, j)``, the increment on row j of the block of draws
    ``dws`` (paths, rows, m), which the loop fills before the step at j = 0,
    possibly in the same array at every step; ``batch.bind(state, values)``
    gives ``observe(prepared, i)``, which writes row i of the block buffer
    ``values`` (paths, points, observables).  Any other callable is called as
    it is, so a replaced ``increment`` still runs.  A bound form does its
    callable's arithmetic on the same operands in the same order, so no result
    depends on the binding, and what it binds is dropped with its chunk.

    Row contract of the engines' increments (``jc.increment_jc``,
    ``physical.increment_bar``): they read the ``.T`` of the state, of the jet
    pairs and of ``dw``'s complex pairs, and write the 1-D coordinate rows of
    a coordinate-major ``jc.empty_state``, so on the loop's state each row is
    contiguous.  Every coefficient is a 0-d array; the per-mode and per-``dt``
    ones are held on the ``ModelParams`` (``held``).  One loop over the modes
    adds the mode sums in order, as ``jc.mode_sum`` does.  A ``dw`` with
    another batch shape than the state's, such as the unit increments of
    :func:`noise_matrix`, broadcasts against it.
    """

    dim: int
    noise_dim: int
    drift: Callable[[Any], np.ndarray]
    noise: Callable[[Any], np.ndarray]
    increment: Callable[[Any, float, np.ndarray], np.ndarray]
    prepare: Callable[[np.ndarray], Any] = _identity


def bindable(call, bind):
    """``call`` carrying ``bind``, its per-chunk form of the binding contract
    of :class:`SdeSystem`."""
    call.bind = bind
    return call


def from_coefficients(dim, noise_dim, drift, noise) -> SdeSystem:
    """The system whose increment is drift(p) dt + noise(p) @ dw."""

    def increment(prepared, dt, dw):
        b = np.asarray(noise(prepared), dtype=complex)
        return np.asarray(drift(prepared), dtype=complex) * dt + (b @ dw[..., None])[..., 0]

    return SdeSystem(dim, noise_dim, drift, noise, increment)


def noise_matrix(increment, noise_dim, batch_ndim):
    """The (..., dim, m) noise matrix of ``increment(dt, dw)``, batched over
    ``batch_ndim`` axes: column c is ``increment(0.0, e_c)``, all in one call."""
    units = np.eye(noise_dim).reshape((noise_dim,) + (1,) * batch_ndim + (noise_dim,))
    return np.moveaxis(increment(0.0, units), 0, -1)


class ObservableMap:
    """Named observables written in one batched call per time step:
    ``batch(prepared, out)`` writes them at a (batched) prepared state into
    ``out`` (..., len(names)), such as a row of the loop's block buffer, and
    returns it (this package's allocate it when None).  The error-state rule
    and the binding contract of :class:`SdeSystem` hold.
    """

    def __init__(self, names: Sequence[str], batch: Callable[..., np.ndarray]):
        self.names = tuple(names)
        self.batch = batch

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Callable]) -> "ObservableMap":
        names = tuple(mapping)
        fns = tuple(mapping[name] for name in names)

        def batch(state, out=None):
            for j, f in enumerate(fns):
                value = f(state)
                if out is None:
                    out = np.empty(np.shape(value) + (len(fns),), dtype=complex)
                out[..., j] = value
            return out

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

    ``stderr`` is that of the complex sample mean, from the total (real plus
    imaginary) variance of the completed runs.  Diverged paths are excluded
    and listed by index, with the grid step at which each first left the
    finite, under-threshold region.  ``chunk_size`` is the widest chunk that
    ran: results are reproducible bit for bit at a fixed seed and chunk size.
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

    @property
    def stderr_spikes(self) -> dict:
        """Per column, the maximum over t of the stderr over its median over
        t: a near-pole excursion that stays under the divergence threshold
        shows as a spike.  None for a column whose median stderr is 0."""
        # the median of each column by partition: np.median would import
        # numpy.ma on its first call, which adds 2 MB of resident memory
        middle = [(len(self.stderr) - 1) // 2, len(self.stderr) // 2]
        spikes = {}
        for name, stderr in zip(self.names, self.stderr.T):
            median = np.partition(stderr, middle)[middle].sum() / 2.0
            spikes[name] = float(stderr.max() / median) if median > 0 else None
        return spikes

    @property
    def diagnostics(self) -> dict:
        """The sidecar entries: the run counts, the first 100 diverged paths
        with their divergence steps, the chunk size, and the stderr spikes,
        overall (the largest, None if no column has one) and per column."""
        spikes = self.stderr_spikes
        return {
            "runs_requested": self.runs_requested,
            "runs_diverged": self.runs_diverged,
            "diverged_paths": list(self.diverged_paths[:100]),
            "divergence_steps": list(self.divergence_steps[:100]),
            "chunk_size": self.chunk_size,
            "stderr_spike": max((s for s in spikes.values() if s is not None), default=None),
            "stderr_spike_by_column": spikes,
        }

    def column(self, name: str):
        j = self.names.index(name)
        return self.mean[:, j], self.stderr[:, j]


def _bind(system, observable_map, state, dt, dws, values):
    """The chunk's ``prepare()``, ``increment(prepared, j)`` and ``observe(prepared,
    i)``, bound by the binding contract of :class:`SdeSystem`."""
    prepare, increment, batch = system.prepare, system.increment, observable_map.batch

    def called_increment(prepared, j):
        return increment(prepared, dt, dws[:, j])

    def called_observe(prepared, i):
        batch(prepared, values[:, i])

    return (
        prepare.bind(state) if hasattr(prepare, "bind") else partial(prepare, state),
        increment.bind(state, dt, dws) if hasattr(increment, "bind") else called_increment,
        batch.bind(state, values) if hasattr(batch, "bind") else called_observe,
    )


def _integrate_chunk(system, state, steps, dt, draw, observable_map, threshold, on_block):
    """Euler-Maruyama over one chunk of paths ``state`` (paths, dim), as
    :func:`run_ensemble` describes.

    The state is held coordinate-major, a (dim, paths) C-order array whose
    ``.T`` every function receives.  ``draw(out)`` fills ``out`` (paths, rows,
    m) with standard normals at the first step of a block; ``on_block(t,
    values, alive)`` receives each block buffer (paths, points, observables)
    from point t on, with the alive mask at its last point, and may overwrite
    ``values``.  A path is latched dead at its first non-finite or
    over-threshold state.  Returns the alive mask, the steps each path
    survived and the state at the first point of each block, (blocks, dim, paths).
    """
    sqrt_dt = np.sqrt(dt)
    coords = np.array(np.asarray(state, dtype=complex).T, order="C")
    state, parts = coords.T, coords.view(float)
    n_paths = state.shape[0]
    alive = np.ones(n_paths, dtype=bool)
    survived = np.full(n_paths, steps, dtype=np.int64)
    dws = np.empty((n_paths, min(_DRAW_BLOCK, steps), system.noise_dim))
    values = np.empty((n_paths, min(_DRAW_BLOCK, steps + 1), len(observable_map.names)), complex)
    checkpoints = np.empty((-(-steps // _DRAW_BLOCK), system.dim, n_paths), dtype=complex)
    prepare, increment, observe = _bind(system, observable_map, state, dt, dws, values)
    limit = 0.5 * threshold

    with np.errstate(all="ignore"):
        prepared = prepare()
        observe(prepared, 0)
        dead = None
        for k in range(steps):
            j = k % _DRAW_BLOCK
            if j == 0:
                checkpoints[k // _DRAW_BLOCK] = coords
                rows = min(_DRAW_BLOCK, steps - k)
                draw(dws[:, :rows])
                dws[:, :rows] *= sqrt_dt
            state += increment(prepared, j)
            if dead is not None:  # parked at 0 every step: a step from 0 can diverge
                state[dead] = 0.0
            # |x| <= sqrt(2) max(|Re x|, |Im x|), so no path can cross while
            # every part is within threshold / 2; nan and inf fail the screen
            if not np.abs(parts).max() <= limit:
                within = (np.abs(coords) <= threshold).all(axis=0)
                survived[alive & ~within] = k
                alive &= within
                dead = None if alive.all() else np.flatnonzero(~alive)
            prepared = prepare()
            i = (k + 1) % _DRAW_BLOCK
            observe(prepared, i)
            if i == _DRAW_BLOCK - 1:
                on_block(k + 2 - _DRAW_BLOCK, values, alive)
        rows = (steps + 1) % _DRAW_BLOCK
        if rows:
            on_block(steps + 1 - rows, values[:, :rows], alive)
    return alive, survived, checkpoints


def _slice_rows(values):
    """Paths in a slice of a (paths, points, observables) block: as many values
    as ``_MERGE_SLICE`` of its points hold.  A slice of paths is contiguous,
    so work on it goes as fast as on the whole block."""
    return max(1, len(values) * _MERGE_SLICE // values.shape[1])


def _within(values, threshold):
    """Per path of a block: are all its values finite and at most
    ``threshold`` in modulus?  Screens one slice of paths at a time, by the
    moduli only if a part of the slice exceeds threshold / 2, as the stepping
    loop screens its state."""
    within = np.empty(len(values), dtype=bool)
    rows = _slice_rows(values)
    for start in range(0, len(values), rows):
        part = values[start : start + rows]
        parts = part.view(float)
        if parts.max() <= 0.5 * threshold and parts.min() >= -0.5 * threshold:
            within[start : start + rows] = True
        else:
            within[start : start + rows] = (np.abs(part) <= threshold).all(axis=(1, 2))
    return within


def _to_front(values, rows):
    """``values[rows]`` for the mask ``rows``, moved in place to the front, half
    a slice at a time from the first row not selected on: row i comes from
    row index[i] >= i, which no earlier move has overwritten."""
    index = np.flatnonzero(rows)
    if len(index) < len(values):
        step = max(1, _slice_rows(values) // 2)
        for i in range(int(np.argmin(rows)), len(index), step):
            sources = index[i : i + step]
            values[i : i + len(sources)] = values[sources]
    return values[: len(index)]


def _block_moments(values):
    """Path count, mean and summed squared deviation over the first axis.

    Centres ``values`` in place and squares the deviations a slice of paths
    at a time, each slice's first row taking on the sum so far, so the sums
    run over the paths in order, bit for bit as numpy sums a whole block
    along its first axis (a one-point, one-observable block is one slice).
    """
    mean = values.mean(axis=0)
    values -= mean
    m2 = None
    rows = _slice_rows(values)
    for start in range(0, len(values), rows):
        squares = np.abs(values[start : start + rows])
        squares **= 2
        if m2 is not None:
            squares[0] += m2
        m2 = squares.sum(axis=0)
        del squares  # before the next slice forms its own
    return len(values), mean, m2


class _Moments:
    """Per-point path count, mean and summed squared deviation of the
    observables.  Blocks enter through ``add`` and leave through ``remove``
    (the pairwise variance-combination rule and its inverse), centred in place.
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


def _replay(system, dt, observables, threshold, checkpoints, streams, entries):
    """Integrate blocks of a chunk again from their ``checkpoints``, as many at
    once as the chunk has paths, on the draws restored from each path's
    ``streams`` snapshot.  ``entries`` lists (path, block, merge), each
    path's blocks in order, with ``merge`` ``_Moments.add`` or ``.remove``.
    """

    def blocks(p):
        gen = np.random.Generator(np.random.Philox())
        gen.bit_generator.state = streams[p]
        for b in itertools.count():
            yield b, gen.standard_normal((_DRAW_BLOCK, system.noise_dim))

    draws = {p: blocks(p) for p in dict.fromkeys(p for p, _, _ in entries)}
    for i in range(0, len(entries), checkpoints.shape[2]):
        batch = entries[i : i + checkpoints.shape[2]]
        normals = np.stack([next(dw for c, dw in draws[p] if c == b) for p, b, _ in batch])

        def draw(out):
            out[...] = normals[:, : _DRAW_BLOCK - 1]

        def merge(t, values, alive):
            for b, into in dict.fromkeys((b, into) for _, b, into in batch):
                rows = [j for j, (_, c, m) in enumerate(batch) if (c, m) == (b, into)]
                into(b * _DRAW_BLOCK, values[rows])

        inits = np.stack([checkpoints[b, :, p] for p, b, _ in batch])
        _integrate_chunk(system, inits, _DRAW_BLOCK - 1, dt, draw, observables, threshold, merge)


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
    """Monte-Carlo ensemble of independent realizations; ``runs=1`` is a
    single realization.

    Path r draws its initial state and then its Wiener increments from the
    counter-based stream keyed by (master_seed, r).  Chunks of ``chunk_size``
    paths run in turn through ``_integrate_chunk``, and every
    ``_DRAW_BLOCK``-point block of a chunk is merged into one set of per-point
    moments, in ascending path order, so the statistics do not depend on
    scheduling.  A block merges, with the pairwise variance-combination rule,
    the paths alive at its last point whose observables in it are finite and
    within ``divergence_threshold`` in modulus; a live path's other blocks
    are set aside, and only their path and block are kept.  The grid's last
    block merges every path alive at its end: those are the survivors.  After
    the chunk, the blocks that the diverged paths entered are replayed from
    the chunk's state checkpoints and taken out, and the set-aside blocks of
    the survivors are replayed and merged in, so the moments are those of the
    surviving paths.  Memory is one block of increments and observables per
    path plus one state per path and block: nothing holds paths x steps
    observables.  A block is screened, its kept rows moved to the front of
    its buffer in path order and its moments reduced in place, one slice of
    paths at a time, so merging it allocates at most one slice, the values of
    ``_MERGE_SLICE`` of its points; the moments are those of one reduction
    over the block, bit for bit.
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
        aside: set[tuple[int, int]] = set()

        def draw(out):
            for dw, gen in zip(out, gens):
                gen.standard_normal(out=dw)

        def merge_block(t, values, alive):
            last = t + values.shape[1] > grid.steps
            kept = alive if last else alive & _within(values, divergence_threshold)
            aside.update((int(p), t // _DRAW_BLOCK) for p in np.flatnonzero(alive & ~kept))
            moments.add(t, _to_front(values, kept))

        alive, survived, checkpoints = _integrate_chunk(
            system, inits, grid.steps, grid.dt, draw, observables, divergence_threshold, merge_block
        )
        dead = {int(p): int(survived[p]) + 1 for p in np.flatnonzero(~alive)}
        diverged.extend(start + p for p in dead)
        divergence_steps.extend(dead.values())
        # a path that first diverges at step d was alive at the last point of
        # every block that ends before point d, and entered each one it was
        # not set aside in
        blocks = [(p, b) for p, d in dead.items() for b in range(d // _DRAW_BLOCK)]
        entries = [(p, b, moments.remove) for p, b in blocks if (p, b) not in aside]
        entries += [(p, b, moments.add) for p, b in sorted(aside) if alive[p]]
        _replay(system, grid.dt, observables, divergence_threshold, checkpoints, streams, entries)

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
