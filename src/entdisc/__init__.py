"""Majorization toolkit for LOCC convertibility and local state discrimination.

Decides when bipartite pure-state ensembles can be distinguished by local
operations and classical communication, and computes the minimal pre-shared
entanglement for assisted and state-preserving discrimination. A name is
public when its module's ``__all__`` lists it; the package re-exports them all.
"""

from . import discrimination, errors, spectra, states, sweep
from .discrimination import *  # noqa: F403
from .errors import *  # noqa: F403
from .spectra import *  # noqa: F403
from .states import *  # noqa: F403
from .sweep import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(name for module in (discrimination, errors, spectra, states, sweep) for name in module.__all__)
