"""Mixed-element solver for the viscoelastic velocity-stress wave system
on the unit square, with two conforming rectangular element pairs and
implicit midpoint time stepping."""

from .analysis import (
    StressErrorEvaluator,
    VelocityErrorEvaluator,
    convergence_orders,
    energy,
    infsup_constants,
)
from .assembly import (
    AssembledSystem,
    assemble_coupling,
    assemble_load,
    assemble_mass_stress,
    assemble_mass_velocity,
    assemble_system,
)
from .fespace import FAMILIES, HMZ, NEDELEC, StressSpace, VelocitySpace
from .linalg import (
    ConvergenceError,
    SchurSolver,
    SingularBlockError,
    block_diag_inverse,
    build_schur,
)
from .material import VOIGT_DOT, IsotropicMaterial
from .mesh import StructuredMesh
from .mms import ExactSolution, exact_fields
from .timestepper import CNStepper, RunResult, SimState, init_state, resolve_time, run

__version__ = "0.1.0"
