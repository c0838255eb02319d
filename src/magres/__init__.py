"""Magnetic resistance forms on finite approximations of self-similar spaces.

Builds weighted networks by iterated refinement of a small base network,
computes resistance-form quantities (energies, traces, harmonic extensions,
effective resistances), equips edges with discrete 1-forms and magnetic
vector potentials, assembles the resulting Hermitian operators in two
models (linearized and phase/Peierls), and reports spectra, flux sweeps,
gauge checks, and quantitative functional-inequality audits.

Each module's ``__all__`` is its list of public names; the package exports
their concatenation.
"""

from . import magnetic, measure_audit, network, oneforms, selfsimilar, spectral
from .network import *
from .selfsimilar import *
from .oneforms import *
from .magnetic import *
from .measure_audit import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (network, selfsimilar, oneforms, magnetic, measure_audit, spectral)
    for name in module.__all__
]
