"""Nonorthogonal fermionic basis-state families.

A family is an analytic function ``h`` (ratio of upper- to lower-level
amplitude of the unnormalized two-level state) with its mirror
``htilde(w) = conj(h(conj(w)))``:

* ``coherent-spin``: h(z) = z, the spin coherent states with f(z) = 1, g(z) = z.
* ``additive-noise``: h(z) = (1 - exp(2z/delta + kappa)) / (1 + exp(2z/delta + kappa)),
  which solves delta * h'(z) = h(z)**2 - 1; the constant ratio
  (h**2 - 1)/h' = delta makes the cavity SDE noise state-independent.

Evaluation broadcasts and never raises or warns: near a pole it returns
inf/nan, and :func:`checked_denominator` is the one pole check of a
phase-space point.  :class:`PhaseFunctions` states the jet layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PoleProximityError, UnreachableTargetError

COHERENT_SPIN = "coherent-spin"
ADDITIVE_NOISE = "additive-noise"

#: :func:`checked_denominator` refuses states where a quantity it checks, and
#: the inverse change of variables where 1 - nu, falls below this in modulus
POLE_FLOOR = 1e-10


def _frozen(value):
    out = np.array(value)
    out.flags.writeable = False
    return out


# read-only 0-d operands of the per-step arithmetic: numpy converts a Python
# scalar operand on every call; these are its conversions, so results are the same
ONE, TWO, MINUS_ONE = _frozen(1.0 + 0.0j), _frozen(2.0 + 0.0j), _frozen(-1.0 + 0.0j)
THREE, FOUR = _frozen(3.0 + 0.0j), _frozen(4.0 + 0.0j)
IMAG, MINUS_IMAG = _frozen(1j), _frozen(-1j)
ZERO = _frozen(0.0)
#: x + LIFT lifts an imaginary -0.0 of x to +0.0 and leaves every other value
LIFT = _frozen(0.0 + 0.0j)
#: x - ONE_LIFTED is x - 1 with an imaginary -0.0 lifted to +0.0 (x.imag -
#: (-0.0) is x.imag + 0.0): the lift of :func:`ppcavity.jc.principal_sqrt`
#: folded into the subtraction
ONE_LIFTED = _frozen(complex(1.0, -0.0))


def checked_denominator(h, ht, *slopes):
    """Return 1 + h*htilde, refusing states where it or any given slope vanishes.

    The change of variables divides by 1 + h*htilde; the SDE coefficients
    also divide by the slopes h' and htilde'.  Raises PoleProximityError when
    any of these is non-finite or smaller than POLE_FLOOR in modulus.
    """
    denom = 1.0 + h * ht
    for value in (denom,) + slopes:
        mag = np.abs(value)
        if np.any(~np.isfinite(mag) | (mag < POLE_FLOOR)):
            raise PoleProximityError(
                "state too close to a singularity (1 + h*htilde, h' or htilde' vanishing)"
            )
    return denom


def _mirror_views(pair):
    """Properties reading the side and the mirror of the stacked member ``pair``."""
    return tuple(property(lambda self, i=i: getattr(self, pair)[..., i]) for i in (0, 1))


def _stack(z, w):
    """The (..., 2) array of (z, w); with ``w`` None, ``z`` already is one."""
    if w is None:
        return np.asarray(z, dtype=complex)
    if np.ndim(z) == np.ndim(w) == 0:  # one point, in one call
        return np.array((z, w), dtype=complex)
    zw = np.empty(np.broadcast(z, w).shape + (2,), dtype=complex)
    zw[..., 0], zw[..., 1] = z, w
    return zw


def _member(form):
    """A cached jet member formed by ``form`` on first read, under the error
    state that :attr:`PhaseFunctions.guarded` names."""

    def member(self):
        if not self.guarded:
            return form(self)
        with np.errstate(all="ignore"):
            return form(self)

    member.__doc__ = form.__doc__
    return cached_property(member)


class PhaseFunctions:
    """The basis jet of one family at (z, w), read by the SDE coefficients,
    the observables and the change of variables.

    Each member is a mirror pair, its last axis holding the side at z and the
    mirror at w: ``hs`` (h, htilde), ``lins`` (h/h', ...), ``quads``
    ((h**2 - 1)/h', the constant pair (delta, conj delta) for the
    additive-noise family), ``slopes`` (h', ...), ``curvatures`` (h'', ...)
    and ``inv_slopes`` (1/h', ...); h/ht, lin/lin_t, quad/quad_t, hp/htp,
    hpp/htpp and inv_hp/inv_htp are views of them, and ``hht`` = h*htilde
    and ``denom`` = 1 + h*htilde are formed with hs.  :meth:`BasisFamily.jet`
    takes one exponential of both sides, with the constants as (side,
    mirror) pairs such as (2/delta, 2/conj delta), and keeps q = exp(2*s*u)
    and 1/q of the additive-noise family.  The slopes, curvatures and inverse
    slopes are cached properties formed for both sides on first read, so a
    step pays only for what it reads and the order of reads changes no value.

    ``guarded`` is True on a jet of :meth:`BasisFamily.jet`, whose members
    form without numpy warnings, and False on the stepping loop's, whose
    members follow the reader's error state (the rule of
    :class:`ppcavity.sde.SdeSystem`).
    """

    def __init__(self, hs, lins, quads, q=None, guarded=True):
        self.hs, self.lins, self.quads = hs, lins, quads
        self.guarded = guarded
        self.h, self.ht = hs[..., 0], hs[..., 1]
        self.hht = self.h * self.ht
        self.denom = ONE + self.hht
        # (q, 1/q); None for the coherent-spin family, whose slopes are 1
        self._q = q

    lin, lin_t = _mirror_views("lins")
    quad, quad_t = _mirror_views("quads")
    hp, htp = _mirror_views("slopes")
    hpp, htpp = _mirror_views("curvatures")
    inv_hp, inv_htp = _mirror_views("inv_slopes")

    @_member
    def slopes(self):
        """h' = (h**2 - 1)/delta; 1 for the coherent-spin family."""
        if self._q is None:
            return np.ones_like(self.hs)
        return (self.hs * self.hs - 1.0) / self.quads

    @_member
    def curvatures(self):
        """h'' = 2 h h'/delta; 0 for the coherent-spin family."""
        if self._q is None:
            return np.zeros_like(self.hs)
        return 2.0 * self.hs * self.slopes / self.quads

    @_member
    def inv_slopes(self):
        """1/h' = -(delta/4)(q + 2 + 1/q) on either branch; 1 for the coherent-spin family."""
        if self._q is None:
            return np.ones_like(self.hs)
        q, q_inv = self._q
        return -(self.quads / 4.0) * (q + 2.0 + q_inv)


@dataclass(frozen=True)
class BasisFamily:
    """One of the two supported basis-state families.

    ``delta`` and ``kappa`` are only meaningful for the additive-noise kind.
    The mirrored function htilde uses the conjugated parameters, which keeps
    htilde(w) = conj(h(conj(w))) an exact identity.
    """

    kind: str
    delta: complex = 4.0 + 0.0j
    kappa: complex = 0.0 + 0.0j

    def __post_init__(self):
        if self.kind not in (COHERENT_SPIN, ADDITIVE_NOISE):
            raise ValueError(f"unknown basis family kind {self.kind!r}")
        object.__setattr__(self, "delta", complex(self.delta))
        object.__setattr__(self, "kappa", complex(self.kappa))
        if self.kind == ADDITIVE_NOISE and self.delta == 0:
            raise ValueError("additive-noise family requires delta != 0")
        if self.kind == ADDITIVE_NOISE:
            # the jet's constants 2/delta, kappa, delta/4 and delta as (side, mirror) pairs
            values = (2.0 / self.delta, self.kappa, self.delta / 4.0, self.delta)
            object.__setattr__(self, "_pairs", _frozen([(c, c.conjugate()) for c in values]))
            object.__setattr__(self, "_tiles", {})

    @classmethod
    def coherent_spin(cls) -> "BasisFamily":
        return cls(COHERENT_SPIN)

    @classmethod
    def additive_noise(cls, delta=4.0, kappa=0.0) -> "BasisFamily":
        return cls(ADDITIVE_NOISE, delta, kappa)

    def _constants(self, zw):
        """2/delta, kappa and delta/4 as (side, mirror) pairs tiled to the shape
        and memory order of ``zw`` (..., 2), and kept: numpy multiplies two
        arrays of one shape and order much faster than it broadcasts a pair."""
        key = (zw.shape, zw.flags.f_contiguous)
        if key not in self._tiles:
            if len(self._tiles) >= 4:  # a few batch shapes at a time
                self._tiles.clear()
            tiles = tuple(np.empty_like(zw, dtype=complex) for _ in range(3))
            for tile, pair in zip(tiles, self._pairs):
                tile[...] = pair
            self._tiles[key] = tiles
        return self._tiles[key]

    def _exp_form(self, zw, twos, kappas):
        """(h, htilde) = -tanh(u) at the (..., 2) array of u = z/delta + kappa/2
        and its mirror, from one exponential: (hs, q, s) with s = -1 where
        Re u > 0, else +1, and q = exp(2*s*u): |q| <= 1, so exp only
        underflows and h = s*(1 - q)/(1 + q) stays finite wherever tanh is."""
        two_u = zw * twos + kappas
        s = np.where(two_u.real > ZERO, MINUS_ONE, ONE)
        q = np.exp(s * two_u)
        return s * (ONE - q) / (ONE + q), q, s

    def pair(self, z, w=None):
        """h(z) and htilde(w) without derivative bookkeeping; with ``w``
        omitted, ``z`` holds (z, w) along its last axis."""
        hs = _stack(z, w)
        if self.kind != COHERENT_SPIN:
            hs = self._exp_form(hs, *self._constants(hs)[:2])[0]
        return hs[..., 0], hs[..., 1]

    def jet(self, z, w=None) -> PhaseFunctions:
        """The guarded :class:`PhaseFunctions` at (z, w), without pole checks;
        with ``w`` omitted, ``z`` holds (z, w) along its last axis."""
        with np.errstate(all="ignore"):
            return self.bind_jet(_stack(z, w), True)()

    def bind_jet(self, zw, guarded=False):
        """:meth:`jet` bound to the (..., 2) array ``zw``: a call without
        arguments that forms the jet at the current values of ``zw`` under the
        caller's error state, with the constants tiled to ``zw`` once, as the
        stepping loop's ``prepare`` binds it (:class:`ppcavity.sde.SdeSystem`)."""
        if self.kind == COHERENT_SPIN:

            def jet():
                hs = np.array(zw)  # h = z and htilde = w, not a view of the caller's state
                return PhaseFunctions(hs, hs, hs * hs - ONE, None, guarded)

            return jet
        twos, kappas, quarters = self._constants(zw)
        quads = self._pairs[3]

        def jet():
            hs, q, s = self._exp_form(zw, twos, kappas)
            q_inv = ONE / q
            # h/h' = (d/4)(e - 1/e), with e = q**s
            return PhaseFunctions(hs, quarters * s * (q - q_inv), quads, (q, q_inv), guarded)

        return jet

    def invert_h(self, target) -> complex:
        """Solve h(z) = target on the principal logarithm branch."""
        target = complex(target)
        if self.kind == COHERENT_SPIN:
            return target
        ratio = (1.0 - target) / (1.0 + target) if target != -1.0 else np.inf
        if ratio == 0 or not np.isfinite(ratio):
            raise UnreachableTargetError(
                f"h = {target} is not reachable for the additive-noise family"
            )
        return complex(self.delta / 2.0 * (np.log(ratio) - self.kappa))

    def invert_htilde(self, target) -> complex:
        """Solve htilde(w) = target via the conjugate-parameter identity."""
        return complex(np.conj(self.invert_h(np.conj(complex(target)))))
