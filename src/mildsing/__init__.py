"""Finite-element solver for semilinear elliptic problems with a mild
singularity at ``u = 0``, plus a perforated-domain homogenization testbed.

The package solves ``-div A(x) Du = F(x, u)`` with homogeneous Dirichlet
data and ``F(x, s) = f(x) g(s) + l(x)`` allowed to blow up as ``s -> 0+``
(up to ``h(x) (s**-gamma + 1)`` with ``0 < gamma <= 1``), via a capped
fixed-point scheme whose truncation levels double until the iterates are
Cauchy in H1.  On lattices of critically-scaled holes the same machinery
reproduces the limit absorption term ``mu u`` and its corrector at desk
scale.
"""

from .cutoffs import gk, tk, z_delta
from .fem import (
    CGStats,
    Coefficient,
    ConvergenceError,
    IndefiniteOperatorError,
    Norms,
    SparseOperator,
    assemble_stiffness,
    energy_product,
    first_eigenpair,
    l2_norm,
    lumped_mass,
    norms,
    solve_cg,
    solve_dirichlet,
)
from .homogenization import (
    PerforationSpec,
    corrector_experiment,
    corrector_field,
    discrete_capacity,
    homogenization_experiment,
    prescribed_mu_radius,
    strange_term_formula,
)
from .mesh import (
    HOLE,
    INTERIOR,
    OUTER_BOUNDARY,
    FieldFunction,
    Mesh,
    PerforationReport,
    build_interval_mesh,
    build_rectangle_mesh,
    extend_by_zero,
    h1_seminorm,
    perforate,
    read_field_csv,
    write_field_csv,
)
from .nonlinearity import (
    EigenTruncation,
    Nonlinearity,
    OscillatingPower,
    PowerLaw,
    TableMap,
    nonlinearity,
)
from .solver import (
    SolveReport,
    SolverConfig,
    levelset_energy_certificate,
    singular_mass_certificate,
    solve_level,
    solve_singular,
)
from .verification import (
    ExperimentOutcome,
    comparison_experiment,
    estimate_lambda_mono,
    nonuniqueness_experiment,
    stability_experiment,
    uniqueness_experiment,
)

__version__ = "0.1.0"
