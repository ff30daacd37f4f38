"""Scale functions and exit identities for spectrally negative Levy processes.

The library computes classical and potential-weighted scale functions,
evaluates two-sided exit identities for exponential functionals of the
process and its running supremum, and cross-validates every identity with an
independent Monte Carlo path engine.
"""

from .generalized import (
    ExitSpec,
    GeneralizedScaleResult,
    TailNotConverged,
    conditional_curve,
    evaluate_exit,
    iota,
    kappa,
    local_time_laplace,
    supremum_atom,
    supremum_density,
    z_f_truncated,
)
from .mc import (
    ConditionalBin,
    ConditionalMCResult,
    Estimate,
    ExitMCResult,
    ExitSamples,
    MCConfig,
    OccupationMCResult,
    conditional_mc,
    occupation_mc,
    run_exit_mc,
)
from . import mc as _mc
from .models import (
    Family,
    LevyModel,
    RootFindingError,
    make_brownian,
    make_exp_jump_diffusion,
)
from .potentials import (
    BivariatePotential,
    UnivariatePotential,
    parse_bivariate,
    parse_g,
    parse_univariate,
)
from .scale import (
    InversionError,
    ScaleTable,
    classical_exit_down,
    classical_exit_up,
    laplace_invert,
    make_scale_table,
    n_height_tail,
    w_derivative,
    wq,
    zq,
)
from .volterra import VolterraSolution, solve_w_z_f

__version__ = "0.1.0"

# The trace wrappers in bench/spans.py still look the solver up as
# ``snlpscale.mc.conditional_curve``.  The engine never calls it; the alias
# is set here so that mc.py keeps importing only ExitSpec from generalized.
# Drop it together with that wrap target.
_mc.conditional_curve = conditional_curve

__all__ = [
    "BivariatePotential",
    "ConditionalBin",
    "ConditionalMCResult",
    "Estimate",
    "ExitMCResult",
    "ExitSamples",
    "ExitSpec",
    "Family",
    "GeneralizedScaleResult",
    "InversionError",
    "LevyModel",
    "MCConfig",
    "OccupationMCResult",
    "RootFindingError",
    "ScaleTable",
    "TailNotConverged",
    "UnivariatePotential",
    "VolterraSolution",
    "classical_exit_down",
    "classical_exit_up",
    "conditional_curve",
    "conditional_mc",
    "evaluate_exit",
    "iota",
    "kappa",
    "laplace_invert",
    "local_time_laplace",
    "make_brownian",
    "make_exp_jump_diffusion",
    "make_scale_table",
    "n_height_tail",
    "occupation_mc",
    "parse_bivariate",
    "parse_g",
    "parse_univariate",
    "run_exit_mc",
    "solve_w_z_f",
    "supremum_atom",
    "supremum_density",
    "w_derivative",
    "wq",
    "z_f_truncated",
    "zq",
]
