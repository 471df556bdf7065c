"""Positive-P phase-space simulations of a two-level atom in a cavity.

The package bundles four engines over one configuration and CSV schema:

* ``sde-jc``: ensemble integration of the positive-P phase-space SDE,
* ``sde-mb-experimental``: the changed-variable (stochastic Maxwell-Bloch)
  SDE for the coherent-spin family,
* ``reference``: a truncated-Fock Lindblad master-equation integrator,
* ``mb``: the deterministic Maxwell-Bloch solver in cavity-mode form.
"""

__version__ = "0.1.0"

from .basis import ADDITIVE_NOISE, COHERENT_SPIN, BasisFamily
from .initialization import AtomicDensity, InitDistribution, init_points
from .jc import ModelParams, jc_sde_system
from .maxwell_bloch import evolve_mb, mb_rhs
from .observables import observable_bundle, physical_columns
from .physical import drift_bar, from_physical, to_physical
from .reference import TruncatedSpace, build_hamiltonian, evolve, master_rhs
from .sde import EnsembleResult, SdeSystem, TimeGrid, run_ensemble

__all__ = [
    "ADDITIVE_NOISE",
    "COHERENT_SPIN",
    "AtomicDensity",
    "BasisFamily",
    "EnsembleResult",
    "InitDistribution",
    "ModelParams",
    "SdeSystem",
    "TimeGrid",
    "TruncatedSpace",
    "build_hamiltonian",
    "drift_bar",
    "evolve",
    "evolve_mb",
    "from_physical",
    "init_points",
    "jc_sde_system",
    "master_rhs",
    "mb_rhs",
    "observable_bundle",
    "physical_columns",
    "run_ensemble",
    "to_physical",
]
