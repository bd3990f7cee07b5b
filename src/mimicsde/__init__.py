"""Degenerate half-space diffusions: simulation, mimicking, PDEs, and cross-checks.

The package is organized around one state space (the closed half-space
x_d >= 0, where the diffusion matrix x_d * a degenerates on the boundary) and
four ways of interrogating processes on it:

* :mod:`.sdesim` simulates the square-root-degenerate SDE and general Itô
  processes with nonnegativity-preserving Euler schemes;
* :mod:`.projection` estimates the conditional-expectation coefficients
  b = E[beta | X], x_d a = E[xi xi* | X] and rebuilds a Markov model whose
  fixed-time marginals should match the original process;
* :mod:`.pde` solves the associated Kolmogorov problems with no boundary data
  on the degenerate layer and checks the expectation/PDE duality;
* :mod:`.martingale` tests the compensated-process martingale property, the
  boundary Itô formula, and the restart (strong Markov) property.

:mod:`.geometry` supplies the cycloidal/parabolic distances and the sampled
Hölder scan used by the validator in :mod:`.coeffs`.
"""

from .coeffs import (
    CoefficientModel,
    LatticeInterpolator,
    RegularityBudget,
    ValidationReport,
    heston_model,
    load_gridded_model,
    strip_generator_term,
    validate_coefficients,
)
from .geometry import Region, SpaceTimePoint
from .martingale import (
    AdaptedProbe,
    MartingaleReport,
    TestFunction,
    boundary_bump,
    ito_formula_residual,
    linear_function,
    martingale_increments,
    martingale_test,
    radial_bump,
    strong_markov_restart_test,
)
from .pde import (
    DualityReport,
    Grid,
    PdeSolution,
    TwoGridValue,
    solve_cauchy,
    solve_terminal_value,
    solve_two_grid,
)
from .projection import (
    BinningSpec,
    MarginalComparison,
    MimickedCoefficients,
    build_mimicking_model,
    compare_marginals,
    estimate_mimicking_coefficients,
    load_mimicked,
    save_mimicked,
)
from .sdesim import (
    ItoDriver,
    PathEnsemble,
    TimeGrid,
    discounted_mean,
    ensemble_to_csv,
    model_driver,
    regime_switching_driver,
    simulate_ito_process,
    simulate_sde,
    support_check,
)

__version__ = "0.1.0"
