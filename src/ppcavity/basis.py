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

:meth:`BasisFamily.jet` forms h, htilde, h/h' and the mirror, and the
diffusion ratio (h**2 - 1)/h' (the constant delta for the additive-noise
family) at once.  The slopes h', h'', 1/h' of both sides and the products
h*htilde and 1 + h*htilde are ``functools.cached_property`` members of the
jet, each formed on first read and kept, so a step pays only for what its
drift, noise and projection read, and they all read one jet.
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


def _slope(h, d, q):
    """h' = (h**2 - 1)/delta; 1 for the coherent-spin family (q is None)."""
    if q is None:
        return np.ones_like(h)
    with np.errstate(all="ignore"):
        return (h * h - 1.0) / d


def _curvature(h, hp, d, q):
    """h'' = 2 h h'/delta; 0 for the coherent-spin family."""
    if q is None:
        return np.zeros_like(h)
    with np.errstate(all="ignore"):
        return 2.0 * h * hp / d


def _inverse_slope(h, d, q):
    """1/h' = -(delta/4)(q + 2 + 1/q) on either branch; 1 for the coherent-spin family."""
    if q is None:
        return np.ones_like(h)
    q, q_inv = q
    with np.errstate(all="ignore"):
        return -(d / 4.0) * (q + 2.0 + q_inv)


class PhaseFunctions:
    """All quantities of one family needed by the SDE coefficient assembly.

    ``lin`` is h/h', ``quad`` is (h**2 - 1)/h', ``inv_hp`` is 1/h'; the
    ``*_t`` and ``ht*`` members are the mirrored quantities evaluated at w.
    Closed forms are used per family, so ``quad`` is the exact constant
    ``delta`` (a 0-d value) for the additive-noise family.  ``hht`` is
    h*htilde and ``denom`` is 1 + h*htilde.

    h, ht, lin, lin_t, quad and quad_t are formed by :meth:`BasisFamily.jet`,
    which also keeps q = exp(2*s*u) and 1/q of each additive-noise side.  The
    other members are cached properties: each is formed from those on first
    read, without numpy warnings, and kept, so the order of reads does not
    change any value.
    """

    def __init__(self, h, ht, lin, lin_t, quad, quad_t, q=None, q_t=None):
        self.h, self.ht = h, ht
        self.lin, self.lin_t = lin, lin_t
        self.quad, self.quad_t = quad, quad_t
        # (q, 1/q) of each side; None for the coherent-spin family, whose slopes are 1
        self._q, self._q_t = q, q_t

    @cached_property
    def hp(self):
        return _slope(self.h, self.quad, self._q)

    @cached_property
    def htp(self):
        return _slope(self.ht, self.quad_t, self._q_t)

    @cached_property
    def hpp(self):
        return _curvature(self.h, self.hp, self.quad, self._q)

    @cached_property
    def htpp(self):
        return _curvature(self.ht, self.htp, self.quad_t, self._q_t)

    @cached_property
    def inv_hp(self):
        return _inverse_slope(self.h, self.quad, self._q)

    @cached_property
    def inv_htp(self):
        return _inverse_slope(self.ht, self.quad_t, self._q_t)

    @cached_property
    def hht(self):
        with np.errstate(all="ignore"):
            return self.h * self.ht

    @cached_property
    def denom(self):
        return 1.0 + self.hht


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

    @classmethod
    def coherent_spin(cls) -> "BasisFamily":
        return cls(COHERENT_SPIN)

    @classmethod
    def additive_noise(cls, delta=4.0, kappa=0.0) -> "BasisFamily":
        return cls(ADDITIVE_NOISE, delta, kappa)

    # -- evaluation ---------------------------------------------------------

    def _sides(self):
        """(delta, kappa) of h and the conjugated pair of htilde."""
        return (self.delta, self.kappa), (self.delta.conjugate(), self.kappa.conjugate())

    @staticmethod
    def _exp_form(x, d, kappa):
        """h = -tanh(u) at u = x/d + kappa/2 from one exponential.

        Returns (h, q, s) with s = -1 where Re u > 0, else +1, and
        q = exp(2*s*u).  So |q| <= 1, e = exp(2u) is q**s, and
        h = s*(1 - q)/(1 + q) stays finite wherever tanh is; exp only
        underflows, which numpy ignores by default.
        """
        two_u = np.asarray(x, dtype=complex) * (2.0 / d) + kappa
        s = 1.0 - 2.0 * (two_u.real > 0)
        q = np.exp(s * two_u)
        return s * (1.0 - q) / (1.0 + q), q, s

    def pair(self, z, w):
        """h(z) and htilde(w) without derivative bookkeeping."""
        if self.kind == COHERENT_SPIN:
            return np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
        (d, k), (dc, kc) = self._sides()
        return self._exp_form(z, d, k)[0], self._exp_form(w, dc, kc)[0]

    def jet(self, z, w) -> PhaseFunctions:
        """All SDE coefficient ingredients, without pole checks.

        Near-pole inputs yield inf/nan entries; callers integrating paths rely
        on divergence detection instead of exceptions.  The additive-noise
        family takes two complex exponentials, one per side, and keeps them
        for the members formed on first read.
        """
        if self.kind == COHERENT_SPIN:
            z = np.asarray(z, dtype=complex)
            w = np.asarray(w, dtype=complex)
            return PhaseFunctions(z, w, z, w, z * z - 1.0, w * w - 1.0)
        sides = []
        with np.errstate(all="ignore"):
            for x, (d, k) in zip((z, w), self._sides()):
                h, q, s = self._exp_form(x, d, k)
                q_inv = 1.0 / q
                # h/h' = (d/4)(e - 1/e), with e = q**s
                sides.append((h, d / 4.0 * s * (q - q_inv), np.asarray(d), (q, q_inv)))
        (h, lin, quad, q), (ht, lin_t, quad_t, q_t) = sides
        return PhaseFunctions(h, ht, lin, lin_t, quad, quad_t, q, q_t)

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
