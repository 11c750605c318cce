"""Mean-field free energies on the circle.

Spectral densities, an interaction-kernel catalog with exact coefficient
laws, critical-point solvers and transition scanners, the associated
gradient flow and particle dynamics, and numerical verification of the
sharp entropy inequalities behind the continuity theory.
"""

from .critical import (
    PhaseDiagram,
    ScanRow,
    SolveReport,
    find_minimizer,
    k_star,
    lambda_star,
    landau_min,
    landau_p,
    multistart,
    scan_kc,
    solve_fixed_point,
    standard_seeds,
)
from .density import (
    Density,
    cosine_profile,
    dual_dirichlet_sum,
    extremal,
    free_energy,
    from_fourier,
    from_grid,
    interaction_energy,
    relative_entropy,
    uniform,
)
from .metrics import w2_circle
from .potentials import (
    DecayReport,
    Potential,
    beta_star,
    check_decay,
    custom_potential,
    doi_onsager,
    hegselmann_krause,
    k_sharp,
    log_gas,
    make_potential,
    normalize,
    r_star,
    transformer,
)

__version__ = "0.1.0"
