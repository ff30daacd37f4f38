"""Scale functions and exit identities for spectrally negative Levy processes.

The library computes classical and potential-weighted scale functions,
evaluates two-sided exit identities for exponential functionals of the
process and its running supremum, and cross-validates every identity with an
independent Monte Carlo path engine.
"""

from . import generalized, mc, models, potentials, scale, volterra
from .generalized import *  # noqa: F403
from .mc import *  # noqa: F403
from .models import *  # noqa: F403
from .potentials import *  # noqa: F403
from .scale import *  # noqa: F403
from .volterra import *  # noqa: F403

__version__ = "0.1.0"

# The trace wrappers in bench/spans.py still look the solver up as
# ``snlpscale.mc.conditional_curve``.  The engine never calls it; the alias
# is set here so that mc.py keeps importing only ExitSpec from generalized.
# Drop it together with that wrap target.
mc.conditional_curve = generalized.conditional_curve

# each public name is declared once, in its submodule's ``__all__``
__all__ = sorted(
    name for module in (generalized, mc, models, potentials, scale, volterra)
    for name in module.__all__
)
