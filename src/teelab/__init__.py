"""teelab: exact verification of the topological entanglement entropy lower bound.

The toolkit has five working parts:

* :mod:`teelab.fusion` - anyon fusion algebra: quantum dimensions, fusion
  probabilities, the fusion convolution and its fixed point, bound constants.
* :mod:`teelab.gfp` - exact linear algebra over F_p for canonical bases and
  witnesses.
* :mod:`teelab.ring` - exact synthetic Abelian sector families on a
  constrained ring, where every entropy is a counting statement.
* :mod:`teelab.stabilizer` - qudit toric codes with exact rank-based region
  entropies, anyon sectors from string operators, and assumption checks.
* :mod:`teelab.audit` - the inequality chain replayed as checkable
  arithmetic on nested-annulus tables.

Every entropy is an exact count; no part builds a dense density operator.
The dense checkers that compare against those counts live with the tests.

:mod:`teelab.cli` stitches these into the `teelab` command.
"""

__version__ = "0.1.0"

from . import audit, fusion, gfp, ring, stabilizer  # noqa: F401
from .errors import TeeLabError  # noqa: F401
