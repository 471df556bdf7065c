"""Nonorthogonal fermionic basis-state families.

A family is defined by an analytic function ``h`` (ratio of upper- to
lower-level amplitude of the unnormalized two-level state) together with its
mirror ``htilde(w) = conj(h(conj(w)))``.  Two families are supported:

* ``coherent-spin``: h(z) = z, the familiar spin coherent states with the
  unnormalized convention f(z) = 1, g(z) = z.
* ``additive-noise``: h(z) = (1 - exp(2z/delta + kappa)) / (1 + exp(2z/delta + kappa)),
  the solution family of delta * h'(z) = h(z)**2 - 1.  The constant ratio
  (h**2 - 1)/h' = delta is what makes the cavity SDE noise state-independent.

All evaluation methods broadcast over numpy arrays of ``z`` and ``w``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PoleProximityError, UnreachableTargetError

COHERENT_SPIN = "coherent-spin"
ADDITIVE_NOISE = "additive-noise"

#: evaluation refuses points where |1 + exp(2z/delta + kappa)|, or a quantity
#: checked by :func:`checked_denominator`, falls below this
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


class PhaseFunctions(NamedTuple):
    """All quantities of one family needed by the SDE coefficient assembly.

    ``lin`` is h/h', ``quad`` is (h**2 - 1)/h', ``inv_hp`` is 1/h'; the
    ``*_t`` and ``ht*`` members are the mirrored quantities evaluated at w.
    Closed forms are used per family so that e.g. ``quad`` is the exact
    constant ``delta`` for the additive-noise family.
    """

    h: np.ndarray
    ht: np.ndarray
    hp: np.ndarray
    htp: np.ndarray
    hpp: np.ndarray
    htpp: np.ndarray
    inv_hp: np.ndarray
    inv_htp: np.ndarray
    lin: np.ndarray
    lin_t: np.ndarray
    quad: np.ndarray
    quad_t: np.ndarray


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

    def _u(self, z):
        return np.asarray(z, dtype=complex) / self.delta + self.kappa / 2.0

    def _ut(self, w):
        return (
            np.asarray(w, dtype=complex) / np.conj(self.delta)
            + np.conj(self.kappa) / 2.0
        )

    def pair(self, z, w):
        """h(z) and htilde(w) without derivative bookkeeping."""
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        if self.kind == COHERENT_SPIN:
            return z, w
        return -np.tanh(self._u(z)), -np.tanh(self._ut(w))

    def eval(self, z, w):
        """Return (h, h', htilde, htilde') at (z, w).

        Raises PoleProximityError when |1 + exp(2z/delta + kappa)| (or the
        mirrored expression at w) drops below POLE_FLOOR.
        """
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        if self.kind == COHERENT_SPIN:
            one = np.ones_like(z)
            return z, one, w, np.ones_like(w)
        u, ut = self._u(z), self._ut(w)
        self._check_poles(u, ut)
        h = -np.tanh(u)
        ht = -np.tanh(ut)
        hp = (h * h - 1.0) / self.delta
        htp = (ht * ht - 1.0) / np.conj(self.delta)
        return h, hp, ht, htp

    def _check_poles(self, u, ut):
        with np.errstate(over="ignore", invalid="ignore"):
            dz = np.abs(1.0 + np.exp(2.0 * u))
            dw = np.abs(1.0 + np.exp(2.0 * ut))
        if np.any(dz < POLE_FLOOR) or np.any(dw < POLE_FLOOR):
            raise PoleProximityError(
                "phase-space point within %.1e of a basis-function pole" % POLE_FLOOR
            )

    def jet(self, z, w) -> PhaseFunctions:
        """All SDE coefficient ingredients, without pole checks.

        Near-pole inputs yield inf/nan entries; callers integrating paths rely
        on divergence detection instead of exceptions.
        """
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        if self.kind == COHERENT_SPIN:
            one_z, one_w = np.ones_like(z), np.ones_like(w)
            zero_z, zero_w = np.zeros_like(z), np.zeros_like(w)
            return PhaseFunctions(
                h=z, ht=w,
                hp=one_z, htp=one_w,
                hpp=zero_z, htpp=zero_w,
                inv_hp=one_z, inv_htp=one_w,
                lin=z, lin_t=w,
                quad=z * z - 1.0, quad_t=w * w - 1.0,
            )
        d, dc = self.delta, np.conj(self.delta)
        u, ut = self._u(z), self._ut(w)
        with np.errstate(over="ignore", invalid="ignore"):
            h = -np.tanh(u)
            ht = -np.tanh(ut)
            hp = (h * h - 1.0) / d
            htp = (ht * ht - 1.0) / dc
            cz, cw = np.cosh(u), np.cosh(ut)
            return PhaseFunctions(
                h=h, ht=ht,
                hp=hp, htp=htp,
                hpp=2.0 * h * hp / d, htpp=2.0 * ht * htp / dc,
                inv_hp=-d * cz * cz, inv_htp=-dc * cw * cw,
                lin=(d / 2.0) * np.sinh(2.0 * u),
                lin_t=(dc / 2.0) * np.sinh(2.0 * ut),
                quad=np.full_like(h, d), quad_t=np.full_like(ht, dc),
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
