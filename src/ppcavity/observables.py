"""The one observable layer: named columns of the physical coordinates.

Every engine supplies the physical coordinates of :mod:`ppcavity.physical`:
the phase-space SDE as the :class:`ppcavity.jc.JetState` of its state, plus
its raw z and w, the changed-variable SDE as its state and the deterministic
engines as their recorded series.  Per-realization values are algebraic
functions of the phase-space point whose ensemble means converge to the
quantum expectation values; :func:`extend_with_observable` instead carries an
observable along as an extra SDE coordinate via the stochastic chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import ONE, TWO, BasisFamily
from .jc import JetState, ModelParams, jet_state, mode_sum
from .physical import ArrayCoordinates, jacobian_change, to_physical
from .sde import ObservableMap, SdeSystem, bindable

DEFAULT_OBSERVABLES = ("rho_11", "rho_22", "rho_21", "rho_12", "nu")
#: raw fermionic coordinates, observable on the phase-space engine only
PHASE_COORDINATES = ("z", "w")
#: the atomic coordinates in the order of ``atomic(k)`` and of the physical layout
_ATOMIC = ("rho_21", "rho_12", "nu")


def _index(name: str, prefix: str, count: int, what: str) -> int:
    """The 0-based index of ``name``, which must read prefix + str(idx) with
    1 <= idx <= count: one spelling per column."""
    for idx in range(1, count + 1):
        if name == f"{prefix}{idx}":
            return idx - 1
    raise ValueError(f"observable {name!r} needs a {what} index in 1..{count}")


def _reader(params: ModelParams, name: str, probes, raw):
    """The writer of column ``name``: read(c, nu, col) writes it into ``col``
    from the coordinates ``c``, rho_11 and rho_22 from the inversion ``nu``."""
    if name in _ATOMIC:
        k = _ATOMIC.index(name)
        return lambda c, nu, col: c.atomic(k, col)
    if name == "rho_11":
        return lambda c, nu, col: np.divide(np.subtract(ONE, nu, out=col), TWO, out=col)
    if name == "rho_22":
        return lambda c, nu, col: np.divide(np.add(ONE, nu, out=col), TWO, out=col)
    if name in raw:
        k = raw.index(name)
        return lambda c, nu, col: np.copyto(col, c.raw(k))
    for prefix, quadrature in (("e_", "eps"), ("h_", "eta")):
        if name.startswith(prefix):
            k = _index(name, prefix, params.mode_count, "mode")
            return lambda c, nu, col: np.copyto(col, getattr(c, quadrature)[..., k])
    for prefix, trig in (("E_at_", np.sin), ("H_at_", np.cos)):
        if name.startswith(prefix):
            # reconstruct_fields, one field, with the per-mode factor formed once
            x = probes[_index(name, prefix, len(probes), "probe")]
            factor = params.e_photon * trig(params.wave_numbers * x)
            if trig is np.sin:
                return lambda c, nu, col: np.copyto(col, mode_sum(factor * c.eps))
            scale = -(1.0 / params.impedance)
            return lambda c, nu, col: np.multiply(scale, mode_sum(factor * c.eta), out=col)
    if name in PHASE_COORDINATES:
        raise ValueError(f"observable {name!r} exists only for the sde-jc engine")
    raise ValueError(f"unknown observable {name!r}")


def physical_columns(params: ModelParams, names, probes=(), raw=()):
    """Resolve observable names once into a writer of columns of the coordinates.

    Names: rho_11 and rho_22 ((1 -/+ nu)/2), rho_21, rho_12, nu, the mode
    quadratures e_<n>/h_<n>, the fields E_at_<j>/H_at_<j> at ``probes[j-1]``
    (see :func:`ppcavity.physical.reconstruct_fields`), and the engine's own
    coordinates listed in ``raw``.  Unknown names and out-of-range indices
    raise ValueError here, not at evaluation.  ``columns(coords, out=None)``
    takes a physical vector (..., 2N+3), followed by the ``raw`` coordinates
    if any name reads them, or a :class:`ppcavity.jc.JetState`, and writes
    the (..., len(names)) columns into ``out`` (a new array if None), which
    it returns; ``columns.writer(out)`` is ``write(coords)``, the same for
    one ``out`` with its column views formed once.  Each column reads only its
    own coordinates; rho_11 and rho_22 read one nu per call, the nu column's
    if there is one.
    """
    names, probes = tuple(names), tuple(float(x) for x in probes)
    n = params.mode_count
    readers = [(j, _reader(params, name, probes, raw)) for j, name in enumerate(names)]
    readers.sort(key=lambda reader: names[reader[0]] != "nu")  # nu first: rho_11 reads it
    nu_column = names.index("nu") if "nu" in names else None
    reads_nu = "rho_11" in names or "rho_22" in names

    def writer(out):
        writers = [(read, out[..., j]) for j, read in readers]
        nu_out = None if nu_column is None else out[..., nu_column]

        def write(coords):
            nu = None
            if reads_nu:
                nu = coords.atomic(2) if nu_out is None else nu_out
            for read, col in writers:
                read(coords, nu, col)
            return out

        return write

    def columns(coords, out=None):
        if not isinstance(coords, JetState):
            coords = ArrayCoordinates(coords, n)
        if out is None:
            out = np.empty(coords.shape + (len(readers),), dtype=complex)
        return writer(out)(coords)

    columns.writer = writer
    return columns


def _row_writers(columns, values):
    """The writers (``columns.writer``) of the rows of ``values`` (paths, points,
    observables), the block buffer of the binding contract of
    :class:`ppcavity.sde.SdeSystem`."""
    return [columns.writer(values[:, i]) for i in range(values.shape[1])]


def observable_bundle(
    params: ModelParams, family: BasisFamily, names, probes=()
) -> ObservableMap:
    """Batched named observables of the phase-space SDE, raw z and w included,
    at a state or its :class:`ppcavity.jc.JetState`.  A direct call never
    warns; on the stepping loop's unguarded jet it sets no error state.
    """
    names = tuple(names)
    columns = physical_columns(params, names, probes, raw=PHASE_COORDINATES)

    def batch(prepared, out=None):
        prepared = jet_state(family, prepared)
        if not prepared.pf.guarded:
            return columns(prepared, out)
        with np.errstate(all="ignore"):
            return columns(prepared, out)

    def bind(state, values):
        rows = _row_writers(columns, values)
        return lambda prepared, i: rows[i](jet_state(family, prepared))

    return ObservableMap(names, bindable(batch, bind))


def physical_observable_bundle(params: ModelParams, names, probes=()) -> ObservableMap:
    """Batched named observables of the changed-variable SDE, read off its state.
    Bound, it reads the loop's state itself: the ``prepare`` of
    :func:`ppcavity.physical.physical_sde_system` is the identity."""
    names = tuple(names)
    columns = physical_columns(params, names, probes)

    def bind(state, values):
        rows, coords = _row_writers(columns, values), ArrayCoordinates(state, params.mode_count)
        return lambda prepared, i: rows[i](coords)

    return ObservableMap(names, bindable(columns, bind))


@dataclass(frozen=True)
class SmoothObservable:
    """Scalar observable with analytic gradient and Hessian over the state."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


def extend_with_observable(system: SdeSystem, v: SmoothObservable) -> SdeSystem:
    """Augment an SDE with the coordinate Sigma = v(X) via the Ito formula.

    The extra coordinate evolves with drift grad(v).A + (1/2) tr(B B^T Hess v)
    and noise grad(v).B, sharing the original Wiener increments; the original
    coordinates are untouched and do not see Sigma.  The increment of a step
    evaluates the base noise and the gradient once, for both coefficients.
    """
    n = system.dim

    def parts(state):
        phi = state[..., :n]
        b = np.asarray(system.noise(phi), dtype=complex)
        return phi, b, np.asarray(v.gradient(phi), dtype=complex)

    def drift_of(phi, b, grad):
        a = np.asarray(system.drift(phi), dtype=complex)
        hess = np.asarray(v.hessian(phi), dtype=complex)
        corr = np.einsum("...ij,...kj->...ik", b, b)
        extra = np.einsum("...i,...i->...", a, grad) + 0.5 * np.einsum(
            "...pq,...pq->...", corr, hess
        )
        return np.concatenate([a, extra[..., None]], axis=-1)

    def noise_of(b, grad):
        row = np.einsum("...i,...im->...m", grad, b)
        return np.concatenate([b, row[..., None, :]], axis=-2)

    def noise(state):
        _, b, grad = parts(state)
        return noise_of(b, grad)

    def increment(state, dt, dw):
        # the increment of from_coefficients(drift, noise), with one set of parts
        phi, b, grad = parts(state)
        return drift_of(phi, b, grad) * dt + (noise_of(b, grad) @ dw[..., None])[..., 0]

    return SdeSystem(
        n + 1, system.noise_dim, lambda state: drift_of(*parts(state)), noise, increment
    )


def projection_observable(which: str, family: BasisFamily, n_modes: int) -> SmoothObservable:
    """Closed-form value/gradient/Hessian of rho_21, rho_12, or nu.

    Value and gradient are the matching entry of ``to_physical`` and row of
    ``jacobian_change``.  Derivatives act on the full phase vector; bosonic
    entries are zero since the atomic projections depend only on (z, w).
    """
    if which not in _ATOMIC:
        raise ValueError("which must be one of rho_21, rho_12, nu")
    row = 2 * n_modes + _ATOMIC.index(which)
    dim = 2 * (n_modes + 1)
    iz, iw = 2 * n_modes, 2 * n_modes + 1

    def value(state):
        return to_physical(family, state, check=False)[..., row]

    def gradient(state):
        return jacobian_change(family, state)[..., row, :]

    def hessian(state):
        prepared = jet_state(family, state)
        pf, batch = prepared.pf, prepared.shape
        out = np.zeros(batch + (dim, dim), dtype=complex)
        with np.errstate(all="ignore"):
            den2, den3 = pf.denom**2, pf.denom**3
            if which == "rho_21":
                zz = pf.hpp / den2 - 2.0 * pf.hp**2 * pf.ht / den3
                zw = -2.0 * pf.h * pf.hp * pf.htp / den3
                ww = -pf.h**2 * pf.htpp / den2 + 2.0 * pf.h**3 * pf.htp**2 / den3
            elif which == "rho_12":
                zz = -pf.ht**2 * pf.hpp / den2 + 2.0 * pf.ht**3 * pf.hp**2 / den3
                zw = -2.0 * pf.ht * pf.hp * pf.htp / den3
                ww = pf.htpp / den2 - 2.0 * pf.htp**2 * pf.h / den3
            else:
                zz = 2.0 * pf.hpp * pf.ht / den2 - 4.0 * pf.hp**2 * pf.ht**2 / den3
                zw = 2.0 * pf.hp * pf.htp * (1.0 - pf.h * pf.ht) / den3
                ww = 2.0 * pf.htpp * pf.h / den2 - 4.0 * pf.htp**2 * pf.h**2 / den3
        out[..., iz, iz] = zz
        out[..., iz, iw] = zw
        out[..., iw, iz] = zw
        out[..., iw, iw] = ww
        return out

    return SmoothObservable(value, gradient, hessian)
