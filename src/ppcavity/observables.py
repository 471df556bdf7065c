"""The one observable layer: named columns of the physical coordinates.

Every engine reduces its state to the physical coordinates
(epsilon_n, eta_n, rho21, rho12, nu) of :mod:`ppcavity.physical`, and
:func:`physical_columns` resolves observable names and field probes once into
a function of those coordinates.  The phase-space SDE gets there through
``to_physical`` and adds its raw fermionic coordinates z, w; the
changed-variable SDE reads its own state; the deterministic engines hand over
their recorded series.  Per-realization values are algebraic functions of the
phase-space point whose ensemble means converge to the quantum expectation
values.  For higher accuracy an observable can instead be carried along as an
extra SDE coordinate via the stochastic chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisFamily
from .jc import ModelParams, jet_state, mode_sum
from .physical import jacobian_change, to_physical
from .sde import ObservableMap, SdeSystem

DEFAULT_OBSERVABLES = ("rho_11", "rho_22", "rho_21", "rho_12", "nu")
#: raw fermionic coordinates, observable on the phase-space engine only
PHASE_COORDINATES = ("z", "w")


def _atomic_row(name: str, n_modes: int):
    """Position of rho_21, rho_12 or nu in the physical layout, else None."""
    return {"rho_21": 2 * n_modes, "rho_12": 2 * n_modes + 1, "nu": 2 * n_modes + 2}.get(name)


def _index(name: str, prefix: str, count: int, what: str) -> int:
    try:
        idx = int(name[len(prefix):])
    except ValueError:
        idx = 0
    if not 1 <= idx <= count:
        raise ValueError(f"observable {name!r} needs a {what} index in 1..{count}")
    return idx - 1


def _column(params: ModelParams, name: str, probes, raw):
    """The index of a plain coordinate column, or a function of the coordinates."""
    n = params.mode_count
    i = _atomic_row(name, n)
    if i is not None:
        return i
    if name == "rho_11":
        return lambda phys: (1.0 - phys[..., 2 * n + 2]) / 2.0
    if name == "rho_22":
        return lambda phys: (1.0 + phys[..., 2 * n + 2]) / 2.0
    if name in raw:
        return 2 * n + 3 + raw.index(name)
    for prefix, offset in (("e_", 0), ("h_", 1)):
        if name.startswith(prefix):
            return 2 * _index(name, prefix, n, "mode") + offset
    for prefix, trig in (("E_at_", np.sin), ("H_at_", np.cos)):
        if name.startswith(prefix):
            # reconstruct_fields, one field, with the per-mode factor formed once
            x = probes[_index(name, prefix, len(probes), "probe")]
            factor = params.e_photon * trig(params.wave_numbers * x)
            if trig is np.sin:
                return lambda phys: mode_sum(factor * phys[..., 0 : 2 * n : 2])
            scale = -(1.0 / params.impedance)
            return lambda phys: scale * mode_sum(factor * phys[..., 1 : 2 * n : 2])
    if name in PHASE_COORDINATES:
        raise ValueError(f"observable {name!r} exists only for the sde-jc engine")
    raise ValueError(f"unknown observable {name!r}")


def physical_columns(params: ModelParams, names, probes=(), raw=()):
    """Resolve observable names once into a function of physical coordinates.

    Names: rho_11 and rho_22 ((1 -/+ nu)/2), rho_21, rho_12, nu, the mode
    quadratures e_<n>/h_<n>, the fields E_at_<j>/H_at_<j> at ``probes[j-1]``
    (see :func:`ppcavity.physical.reconstruct_fields`), and the engine's own
    coordinates listed in ``raw``.  Unknown names and out-of-range indices
    raise ValueError here, not at evaluation.  The returned function maps
    ``phys`` (..., 2N+3), followed by the ``raw`` coordinates if any name
    reads them, to a (..., len(names)) array.  The plain coordinate columns
    are copied one slice per run of them that is consecutive in both.
    """
    probes = tuple(float(x) for x in probes)
    found = [_column(params, name, probes, raw) for name in names]
    runs = []  # [first column, first coordinate, length] of consecutive plain columns
    for j, c in enumerate(found):
        if isinstance(c, int):
            if runs and runs[-1][0] + runs[-1][2] == j and runs[-1][1] + runs[-1][2] == c:
                runs[-1][2] += 1
            else:
                runs.append([j, c, 1])
    derived = [(j, c) for j, c in enumerate(found) if not isinstance(c, int)]

    def columns(phys):
        phys = np.asarray(phys, dtype=complex)
        out = np.empty(phys.shape[:-1] + (len(found),), dtype=complex)
        for j, c, k in runs:
            out[..., j : j + k] = phys[..., c : c + k]
        for j, read in derived:
            out[..., j] = read(phys)
        return out

    return columns


def observable_bundle(
    params: ModelParams, family: BasisFamily, names, probes=()
) -> ObservableMap:
    """Batched named observables of the phase-space SDE, raw z and w included.

    The batch takes a state or the :class:`ppcavity.jc.JetState` that
    ``jc_sde_system`` prepares, and reads h and htilde from its jet.
    """
    names = tuple(names)
    n = params.mode_count
    columns = physical_columns(params, names, probes, raw=PHASE_COORDINATES)
    reads_raw = any(name in PHASE_COORDINATES for name in names)

    def batch(state):
        prepared = jet_state(family, state)
        with np.errstate(all="ignore"):
            phys = to_physical(family, prepared, check=False)
            if reads_raw:
                phys = np.concatenate((phys, prepared.state[..., 2 * n :]), axis=-1)
            return columns(phys)

    return ObservableMap(names, batch)


def physical_observable_bundle(params: ModelParams, names, probes=()) -> ObservableMap:
    """Batched named observables of the changed-variable SDE, read off its state."""
    names = tuple(names)
    return ObservableMap(names, physical_columns(params, names, probes))


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
    coordinates are untouched and do not see Sigma.
    """
    n = system.dim

    def drift(state):
        phi = state[..., :n]
        a = np.asarray(system.drift(phi), dtype=complex)
        b = np.asarray(system.noise(phi), dtype=complex)
        grad = np.asarray(v.gradient(phi), dtype=complex)
        hess = np.asarray(v.hessian(phi), dtype=complex)
        corr = np.einsum("...ij,...kj->...ik", b, b)
        extra = np.einsum("...i,...i->...", a, grad) + 0.5 * np.einsum(
            "...pq,...pq->...", corr, hess
        )
        return np.concatenate([a, extra[..., None]], axis=-1)

    def noise(state):
        phi = state[..., :n]
        b = np.asarray(system.noise(phi), dtype=complex)
        grad = np.asarray(v.gradient(phi), dtype=complex)
        row = np.einsum("...i,...im->...m", grad, b)
        return np.concatenate([b, row[..., None, :]], axis=-2)

    return SdeSystem(dim=n + 1, noise_dim=system.noise_dim, drift=drift, noise=noise)


def projection_observable(which: str, family: BasisFamily, n_modes: int) -> SmoothObservable:
    """Closed-form value/gradient/Hessian of rho_21, rho_12, or nu.

    Value and gradient are the matching entry of ``to_physical`` and row of
    ``jacobian_change``.  Derivatives act on the full phase vector; bosonic
    entries are zero since the atomic projections depend only on (z, w).
    """
    row = _atomic_row(which, n_modes)
    if row is None:
        raise ValueError("which must be one of rho_21, rho_12, nu")
    dim = 2 * (n_modes + 1)
    iz, iw = 2 * n_modes, 2 * n_modes + 1

    def value(state):
        return to_physical(family, state, check=False)[..., row]

    def gradient(state):
        return jacobian_change(family, state)[..., row, :]

    def hessian(state):
        state, pf = jet_state(family, state)
        batch = state.shape[:-1]
        den2, den3 = pf.denom**2, pf.denom**3
        out = np.zeros(batch + (dim, dim), dtype=complex)
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
