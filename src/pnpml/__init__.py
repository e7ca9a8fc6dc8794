"""Radiative transfer on 2D cross-sections with spherical-harmonic angular
discretization and a matched absorbing layer replacing vacuum boundaries.

The pipeline: build the layered geometry and mesh, extend the coefficients by
the absorbing layer, assemble the parity-split mixed system in Kronecker form,
eliminate the odd unknowns, and solve the Schur complement by preconditioned
conjugate gradients.  An independent characteristics / discrete-ordinates
solver provides reference solutions for validation.
"""

from pnpml.angular import (
    AngularBasis,
    AngularCouplings,
    SphereQuadrature,
    build_basis,
    coupling_matrices,
    quadrature_for_order,
    real_sph_harm,
    scattering_eigenvalues,
    sphere_quadrature,
)
from pnpml.assembly import (
    BlockOperator,
    Field,
    build_operator,
    explicit_matrices,
    project_source,
)
from pnpml.mesh import (
    INTERIOR,
    LAYER,
    Disk,
    GeometrySpec,
    Mesh2D,
    Rect,
    build_mesh,
    load_mesh,
    ray_exit_distance,
    save_mesh,
    submesh_interior,
    uniform_refine,
)
from pnpml.oracle import (
    OrdinateSet,
    SampledField,
    build_ordinates,
    characteristics_solve,
    consistency_error,
    source_iteration,
)
from pnpml.pml import (
    TransportCoefficients,
    extend_coefficients,
    extension_apply,
    reflect,
)
from pnpml.solver import (
    BLOCK_SPATIAL,
    JACOBI,
    SchurOperator,
    SolveReport,
    build_preconditioner,
    pcg_solve,
    recover_odd,
    solve_system,
)

__version__ = "0.1.0"
