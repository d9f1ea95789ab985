"""Fractional-derivative mechanics and WKB wave construction.

Layers, bottom up:

- fracops: uniform-grid Riemann-Liouville derivatives via the
  Grunwald-Letnikov kernel, with closed-form oracles
- mechanics: a quadratic Lagrangian family in two fractional
  velocities and its Legendre transform
- hamilton_jacobi: additive separation of the principal function in
  the transformed coordinates
- wkb: the 1/sqrt(p) exp(iS/hbar) wave field, finite-difference
  eigen-checks of the momentum and Hamiltonian operators, and the
  batched evaluator of every model quantity
- verification: the records of every CLI subcommand, with their
  tolerance tables and computed bounds, and the oracle suite behind
  `fracwkb verify`
- cli: command-line front end; it parses, dispatches to verification's
  record builders and writes

The package re-exports the `__all__` of errors, fracops,
hamilton_jacobi, mechanics, reporting and wkb, in that order, and adds
only `__version__`.  verification and cli are imported as modules
(`from fracwkb import verification`).
"""

from . import errors, fracops, hamilton_jacobi, mechanics, reporting, wkb
from .errors import *
from .fracops import *
from .hamilton_jacobi import *
from .mechanics import *
from .reporting import *
from .wkb import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *fracops.__all__, *hamilton_jacobi.__all__,
    *mechanics.__all__, *reporting.__all__, *wkb.__all__, "__version__",
]
