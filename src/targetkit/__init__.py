"""targetkit: structured solutions of the matrix equation A X = Y.

Given equally sized matrices X and Y, decide whether a square targeting
matrix A with a requested structure (Hermitian, positive semidefinite,
unitary, reflection, projection, complex symmetric, normal with a
two-point spectrum, ...) exists with ``A X = Y``; construct one when it
does, with every answer re-verified independently before it is returned.

The package's names are the ``__all__`` of its modules, bar linalg's
coercion helpers ``as_matrix`` and ``is_zero_matrix``, which are public
in :mod:`targetkit.linalg` only.
"""

from . import errors, feasibility, linalg, mmio, solvers, sources, verify
from .errors import *  # noqa: F403
from .feasibility import *  # noqa: F403
from .linalg import *  # noqa: F403
from .mmio import *  # noqa: F403
from .solvers import *  # noqa: F403
from .sources import *  # noqa: F403
from .verify import *  # noqa: F403

del as_matrix, is_zero_matrix  # noqa: F821

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, linalg, feasibility, solvers, sources, verify, mmio)
    for name in module.__all__
    if name in globals()
]
