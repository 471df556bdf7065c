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
never raise: near a pole they return inf/nan entries.  A caller that must
refuse such a point passes the jet to :func:`checked_denominator`, the one
pole check for a phase-space point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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

    @classmethod
    def _jet_side(cls, x, d, kappa):
        """h, h', h'', 1/h' and h/h' of one side, all from ``_exp_form``."""
        h, q, s = cls._exp_form(x, d, kappa)
        q_inv = 1.0 / q
        hp = (h * h - 1.0) / d
        quarter = d / 4.0
        # h/h' = (d/4)(e - 1/e) and 1/h' = -(d/4)(e + 2 + 1/e), with e = q**s
        return h, hp, 2.0 * h * hp / d, -quarter * (q + 2.0 + q_inv), quarter * s * (q - q_inv)

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
        family takes two complex exponentials, one per side.
        """
        if self.kind == COHERENT_SPIN:
            z = np.asarray(z, dtype=complex)
            w = np.asarray(w, dtype=complex)
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
        (d, k), (dc, kc) = self._sides()
        with np.errstate(all="ignore"):
            h, hp, hpp, inv_hp, lin = self._jet_side(z, d, k)
            ht, htp, htpp, inv_htp, lin_t = self._jet_side(w, dc, kc)
        return PhaseFunctions(
            h=h, ht=ht,
            hp=hp, htp=htp,
            hpp=hpp, htpp=htpp,
            inv_hp=inv_hp, inv_htp=inv_htp,
            lin=lin, lin_t=lin_t,
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
