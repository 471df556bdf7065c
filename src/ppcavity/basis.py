"""Nonorthogonal fermionic basis-state families.

A family is defined by an analytic function ``h`` (ratio of upper- to
lower-level amplitude of the unnormalized two-level state) together with its
mirror ``htilde(w) = conj(h(conj(w)))``.  Two families are supported:

* ``coherent-spin``: h(z) = z, the familiar spin coherent states with the
  unnormalized convention f(z) = 1, g(z) = z.
* ``additive-noise``: h(z) = (1 - exp(2z/delta + kappa)) / (1 + exp(2z/delta + kappa)),
  the solution family of delta * h'(z) = h(z)**2 - 1.  The constant ratio
  (h**2 - 1)/h' = delta is what makes the cavity SDE noise state-independent.

All evaluation methods broadcast over numpy arrays of ``z`` and ``w`` and
never raise or warn: near a pole they return inf/nan entries.  A caller that
must refuse such a point passes the jet to :func:`checked_denominator`, the
one pole check for a phase-space point.

:meth:`BasisFamily.jet` and :meth:`BasisFamily.pair` evaluate a side and its
mirror in one pass: they stack (z, w) along a trailing axis of length 2, such
as a state's last two coordinates, and take one exponential with the
constants as (side, mirror) pairs (2/delta, 2/conj delta) and (kappa, conj
kappa).  Every member of the jet is such a pair; the slopes h', h'', 1/h' are
``functools.cached_property`` members formed on first read, so a step pays
only for what its drift, noise and projection read, and they all read one jet.
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
# scalar operand on every call, which costs more than the arithmetic on a few
# hundred paths; these are the values it converts them to, so the results are
# the same
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
    """A cached jet member formed by ``form`` on first read: without numpy
    warnings on a ``guarded`` jet, under the caller's error state on any
    other."""

    def member(self):
        if not self.guarded:
            return form(self)
        with np.errstate(all="ignore"):
            return form(self)

    member.__doc__ = form.__doc__
    return cached_property(member)


class PhaseFunctions:
    """All quantities of one family needed by the SDE coefficient assembly.

    Each member is a mirror pair, its last axis holding the side at z and the
    mirror at w: ``hs`` (h, htilde), ``lins`` (h/h', ...), ``quads`` (the
    diffusion ratios (h**2 - 1)/h', the exact constant pair (delta, conj
    delta) for the additive-noise family), ``slopes`` (h', ...),
    ``curvatures`` (h'', ...) and ``inv_slopes`` (1/h', ...); h/ht, lin/lin_t,
    quad/quad_t, hp/htp, hpp/htpp and inv_hp/inv_htp are views of them.
    :meth:`BasisFamily.jet` forms hs, lins, quads, ``hht`` = h*htilde and
    ``denom`` = 1 + h*htilde, and keeps q = exp(2*s*u) and 1/q of the
    additive-noise family.  The slopes, curvatures and inverse slopes are
    cached properties, formed for both sides from those on first read, so the
    order of reads does not change any value.  ``guarded`` is True on a jet
    of :meth:`BasisFamily.jet`, whose readers set their own error state,
    False on one of the stepping loop, read under the loop's.  Their
    per-side views are properties.
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
            pairs = np.array([(c, c.conjugate()) for c in values])
            pairs.flags.writeable = False
            object.__setattr__(self, "_pairs", pairs)
            object.__setattr__(self, "_tiles", {})

    @classmethod
    def coherent_spin(cls) -> "BasisFamily":
        return cls(COHERENT_SPIN)

    @classmethod
    def additive_noise(cls, delta=4.0, kappa=0.0) -> "BasisFamily":
        return cls(ADDITIVE_NOISE, delta, kappa)

    # -- evaluation ---------------------------------------------------------

    def _constants(self, zw):
        """2/delta, kappa and delta/4 as (side, mirror) pairs tiled to the shape
        and memory order of the jet's argument ``zw`` (..., 2), such as the
        ``.T`` view of a coordinate-major state, and kept: numpy multiplies
        two arrays of one shape and order much faster than it broadcasts a
        pair over a batch."""
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
        and its mirror, from one exponential.

        Returns (hs, q, s) with s = -1 where Re u > 0, else +1, and
        q = exp(2*s*u).  So |q| <= 1, e = exp(2u) is q**s, and
        h = s*(1 - q)/(1 + q) stays finite wherever tanh is; exp only
        underflows, which numpy ignores by default.
        """
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
        """All SDE coefficient ingredients, without pole checks.

        With ``w`` omitted, ``z`` holds (z, w) along its last axis, such as
        the last two coordinates of a state.  Near-pole inputs yield inf/nan
        entries; callers integrating paths rely on divergence detection
        instead of exceptions.  The additive-noise family takes one complex
        exponential of both sides and keeps it for the members formed on
        first read.
        """
        with np.errstate(all="ignore"):
            return self._unguarded_jet(_stack(z, w), True)

    def _unguarded_jet(self, zw, guarded=False) -> PhaseFunctions:
        """:meth:`jet` at the (..., 2) complex array ``zw``, under the caller's
        numpy error state: near a pole it warns unless numpy errors are ignored.
        For a caller that already runs under ``np.errstate(all="ignore")``,
        such as the stepping loop of :mod:`ppcavity.sde`; the members formed
        on first read follow the error state of their reader unless
        ``guarded``."""
        if self.kind == COHERENT_SPIN:
            hs = np.array(zw)  # h = z and htilde = w, not a view of the caller's state
            return PhaseFunctions(hs, hs, hs * hs - ONE, None, guarded)
        twos, kappas, quarters = self._constants(zw)
        hs, q, s = self._exp_form(zw, twos, kappas)
        q_inv = ONE / q
        # h/h' = (d/4)(e - 1/e), with e = q**s
        return PhaseFunctions(
            hs, quarters * s * (q - q_inv), self._pairs[3], (q, q_inv), guarded
        )

    # -- inversion ----------------------------------------------------------

    def invert_h(self, target) -> complex:
        """Solve h(z) = target on the principal logarithm branch."""
        target = complex(target)
        if self.kind == COHERENT_SPIN:
            return target
        if target == 1.0 or target == -1.0:
            raise UnreachableTargetError(
                f"h = {target} is not reachable for the additive-noise family"
            )
        ratio = (1.0 - target) / (1.0 + target)
        if ratio == 0 or not np.isfinite(ratio):
            raise UnreachableTargetError(
                f"h = {target} is not reachable for the additive-noise family"
            )
        return complex(self.delta / 2.0 * (np.log(ratio) - self.kappa))

    def invert_htilde(self, target) -> complex:
        """Solve htilde(w) = target via the conjugate-parameter identity."""
        return complex(np.conj(self.invert_h(np.conj(complex(target)))))
