"""Ground states of a nonlocal field equation on integer lattice boxes.

The library computes minimizers of the energy

    J(u) = (1/p) ||u||^p - (1/2) sum (R_alpha * F(u)) F(u)

over the constraint manifold {u != 0 : <J'(u), u> = 0}, where the norm
couples a graph p-Laplacian with a positive potential and R_alpha is a
Riesz-type lattice kernel.  Modules: `lattice` (box geometry and difference
operators), `kernel` (subordination kernel table and convolution), `model`
(potentials, nonlinearities, and the admissibility rule min q_i > p),
`energy` (functionals and gradients), `nehari` (fiber maps and manifold
projection), `solver` (multi-start descent), `verify` (sampling harness and
brute-force oracle), `cli` (command-line front end).
"""

from .lattice import (
    DomainError,
    Field,
    LatticeSpec,
    read_field_csv,
    write_field_csv,
)
from .kernel import (
    KernelTable,
    build_table,
    convolve,
    dense_operator,
    fractional_degree,
)
from .model import (
    CoercivePotential,
    ConstantPotential,
    ModelRejectedError,
    ModelSpec,
    ModelViolationError,
    PeriodicPotential,
    SumOfPowers,
    eval_F,
    eval_f,
    validate_model,
)
from .energy import (
    EnergyContext,
    FiberCoefficients,
    fiber_coefficients,
    h_norm,
    h_norm_pow,
    make_context,
    pairing_field,
)
from .nehari import project_su
from .solver import (
    NonconvergenceError,
    SolveReport,
    SolverConfig,
    StartDiagnostics,
    minimize_ground_state,
)
from .verify import (
    CheckReport,
    ar_condition_check,
    fiber_growth_check,
    ground_state_oracle,
    hls_sampler,
    nehari_floor_check,
    run_all_checks,
    su_uniqueness_scan,
    write_checks_json,
)

__version__ = "0.1.0"

