"""Numerical two-spinor calculus and momentum-space relativistic fields.

Subpackages by role: :mod:`bwfields.spinor_core` holds the epsilon-index
algebra, conversion tables and SL(2,C) maps; :mod:`bwfields.momentum` the
on-shell momenta, null spin frames and mass-shell quadrature;
:mod:`bwfields.slot_core` the field stack and its slot contraction, world
tensor and probe contraction; :mod:`bwfields.massive_bw` and
:mod:`bwfields.massless` the multispinor field constructions with their
norm integrands; :mod:`bwfields.maxwell`
the electromagnetic specialization; :mod:`bwfields.dirac_algebra` the
gamma-matrix bridge; :mod:`bwfields.verify_cli` the batch verification
driver (console script ``bw-verify``).
"""

from .momentum import FourMomentum, on_shell
from .spinor_core import SL2CElement, LorentzMatrix, SpinorTensor

__version__ = "0.1.0"

__all__ = [
    "FourMomentum",
    "on_shell",
    "SL2CElement",
    "LorentzMatrix",
    "SpinorTensor",
    "__version__",
]
