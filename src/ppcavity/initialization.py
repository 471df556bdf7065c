"""The atomic density matrix and its exact three-point representation over
fermionic phase-space points, :func:`init_points`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisFamily
from .errors import BoundaryPopulationError, CavityError, PositivityError

_RECONSTRUCTION_GUARD = 1e-9
#: slack of the checks of a density: absolute for its hermiticity, trace and
#: diagonal, relative for its coherence (:meth:`AtomicDensity.validate`)
DENSITY_TOL = 1e-9


@dataclass(frozen=True)
class AtomicDensity:
    """Two-level density matrix entries in the (lower, upper) basis."""

    rho11: complex
    rho12: complex
    rho21: complex
    rho22: complex

    @classmethod
    def from_upper(cls, rho11, rho12=0j) -> "AtomicDensity":
        """Build a hermitian, trace-one density from rho11 and rho12."""
        rho11, rho12 = complex(rho11), complex(rho12)
        out = cls(rho11, rho12, np.conj(rho12), 1.0 - rho11)
        out.validate()
        return out

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.rho11, self.rho12], [self.rho21, self.rho22]], dtype=complex
        )

    def validate(self):
        """Check hermiticity and unit trace (ValueError) and positive
        semidefiniteness (PositivityError), the one positivity rule of every
        engine: rho11, rho22 >= -DENSITY_TOL and |rho12| <= (1 + DENSITY_TOL)
        sqrt(rho11 rho22), so the coherence weight q of :func:`init_points` is
        at most 1 + DENSITY_TOL."""
        self._check_hermitian_trace()
        p, p2 = self.rho11.real, self.rho22.real
        r, bound = abs(self.rho12), np.sqrt(max(p * p2, 0.0))
        if not (min(p, p2) >= -DENSITY_TOL and r <= (1.0 + DENSITY_TOL) * bound):
            raise PositivityError(
                f"density matrix is not positive semidefinite: |rho12| = {r:.6g} "
                f"exceeds sqrt(rho11 rho22) = {bound:.6g}"
            )

    def _check_hermitian_trace(self):
        if abs(self.rho12 - np.conj(self.rho21)) > DENSITY_TOL:
            raise ValueError("density matrix is not hermitian: rho12 != conj(rho21)")
        if abs(self.rho11.imag) > DENSITY_TOL or abs(self.rho22.imag) > DENSITY_TOL:
            raise ValueError("density matrix diagonal must be real")
        if abs(self.rho11 + self.rho22 - 1.0) > DENSITY_TOL:
            raise ValueError("density matrix trace must be one")


def fermionic_projector(family: BasisFamily, z, w) -> np.ndarray:
    """Normalized projector onto the pair of family states at (z, w)."""
    h, ht = family.pair(z, w)
    denom = 1.0 + h * ht
    return np.array([[1.0, ht], [h, h * ht]], dtype=complex) / denom


@dataclass(frozen=True, eq=False)
class InitDistribution:
    """Three-point distribution over fermionic phase-space coordinates.

    Point i has probability ``weights[i]`` and coordinates ``(zs[i], ws[i])``.
    """

    weights: np.ndarray
    zs: np.ndarray
    ws: np.ndarray

    def reconstruct(self, family: BasisFamily) -> np.ndarray:
        """Weighted projector average."""
        out = np.zeros((2, 2), dtype=complex)
        for weight, z, w in zip(self.weights, self.zs, self.ws):
            out += weight * fermionic_projector(family, z, w)
        return out

    def sample(self, rng: np.random.Generator, count=None):
        """Draw point indices; returns (z, w) arrays (or scalars for count=None)."""
        idx = rng.choice(len(self.weights), size=count, p=self.weights)
        return self.zs[idx], self.ws[idx]


def init_points(rho: AtomicDensity, family: BasisFamily) -> InitDistribution:
    """The three-point distribution whose weighted projector average is ``rho``.

    With rho11 = p, rho12 = r exp(i phi), K = sqrt(1/p - 1) and the weight
    q = r (1 + K**2)/K, point 1 (weight q) has h(z1) = K exp(-i phi) and
    htilde(w1) = K exp(i phi), and points 2 and 3 (weight (1 - q)/2 each)
    h = htilde = K and -K.  Raises BoundaryPopulationError unless
    0 < rho11 < 1, PositivityError for a ``rho`` that
    :meth:`AtomicDensity.validate` refuses (q > 1 + DENSITY_TOL; within that
    slack q is clipped to 1),
    UnreachableTargetError when the family cannot reach a target (K = 1 under
    the additive-noise family) and CavityError if the points miss ``rho``.
    """
    rho.validate()
    p = rho.rho11.real
    if not 0.0 < p < 1.0:
        raise BoundaryPopulationError(f"need 0 < rho11 < 1, got {p}")
    r = abs(rho.rho12)
    phi = np.angle(rho.rho12) if r > 0 else 0.0
    big_k = np.sqrt(1.0 / p - 1.0)
    q = min(r * (1.0 + big_k**2) / big_k, 1.0)

    h_targets = (big_k * np.exp(-1j * phi), big_k, -big_k)
    ht_targets = (big_k * np.exp(1j * phi), big_k, -big_k)
    dist = InitDistribution(
        weights=np.array([q, (1.0 - q) / 2.0, (1.0 - q) / 2.0]),
        zs=np.array([family.invert_h(th) for th in h_targets], dtype=complex),
        ws=np.array([family.invert_htilde(tht) for tht in ht_targets], dtype=complex),
    )

    residual = np.abs(dist.reconstruct(family) - rho.matrix()).max()
    if residual > _RECONSTRUCTION_GUARD:
        raise CavityError(
            f"initialization failed to reconstruct the density (residual {residual:.3e})"
        )
    return dist
