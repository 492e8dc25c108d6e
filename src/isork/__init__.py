"""Isospectral symplectic SDIRK integrators on quadratic matrix Lie algebras.

The steppers advance matrix flows mu_dot = [B(mu), mu] through Cayley
similarity transforms, so eigenvalues and trace Casimirs are conserved
to roundoff while the underlying Runge-Kutta scheme keeps its
symplectic energy behavior.  Ships with three benchmark systems (free
rigid body, periodic Toda in extended form, Zeitlin's sphere
truncation), drift diagnostics with deterministic CSV output, and an
experiment CLI (`isork`).
"""

from . import diagnostics, integrator, quadlie, systems, tableau
from .diagnostics import *  # noqa: F401,F403
from .integrator import *  # noqa: F401,F403
from .quadlie import *  # noqa: F401,F403
from .systems import *  # noqa: F401,F403
from .tableau import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *diagnostics.__all__,
    *integrator.__all__,
    *quadlie.__all__,
    *systems.__all__,
    *tableau.__all__,
    "__version__",
]
