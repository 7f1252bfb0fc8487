"""Numerical laboratory for graphical spacelike mean curvature flow in an
exponentially expanding flat slicing.

The package evolves spacelike graphs t = u(x, s) by their mean curvature,
checks the run against the closed-form identities and inequalities the
geometry satisfies, and drives the barrier / flattening / rescaling
experiments from the command line (``dsmcf --help``).
"""

from .errors import DsmcfError
from .geometry import CutoffSpec
from .grids import Field, Grid, interpolate, refinement_order
from .flow import (
    BoundaryCondition,
    FlowConfig,
    GraphState,
    Trajectory,
    run,
    stable_dt,
    step,
)
from .oracles import (
    InequalityReport,
    ResidualReport,
    check_coordinate_laplacians,
    check_curvature_evolution,
    check_restriction_gradients,
    check_tilt_bounds,
    check_tilt_evolution,
    check_tilt_gradient,
    check_weight_evolution,
    check_weight_gradient,
)

__version__ = "0.1.0"
