"""fluidalg: finite-dimensional fluid algebras and their Euler dynamics.

An algebra is a triple of arrays on R^n -- an alternating trilinear form,
a symmetric nondegenerate linking form, and a positive definite metric.
The package evaluates the forms, the curl operator they induce, the Euler
evolution ODE with its conserved energy and helicity, vorticity transport,
the induced bracket and its Jacobi defect, and ships structure-preserving
integrators, concrete instances (rigid body, spectral flat torus, seeded
random algebras), a diagnostics suite, and a CLI.

Each module's ``__all__`` is the one list of its public names.  The
package re-exports the names of ``core``, ``dynamics``, ``integrators``,
``instances`` and ``diagnostics``, in that order; the CLI
(:mod:`fluidalg.cli`) is not imported here.
"""

from . import core, diagnostics, dynamics, instances, integrators
from .core import *
from .dynamics import *
from .integrators import *
from .instances import *
from .diagnostics import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *dynamics.__all__, *integrators.__all__,
           *instances.__all__, *diagnostics.__all__, "__version__"]
