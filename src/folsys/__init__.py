"""Foliated systems of ODEs: decompositions X = sum_a g_a(t,x) X_a whose
coefficients are leafwise constant, their leaf-preserving reconstruction
rules, group-valued reductions, and compatible Poisson structures."""

from .algebra import (InvariantMetric, LieAlgebra, adjoint_matrix,
                      builtin_algebra, killing_form)
from .fields import (RealizedAlgebra, TDependentVectorField, VectorField,
                     directional_derivative, lie_bracket_at, rank_at)
from .foliated import (FoliatedSystem, FoliationChart, assemble, leaf_drift,
                       leaf_of, sup_drift, verify_foliated)
from .integrate import (Trajectory, convergence_order, integrate,
                        trajectory_to_csv)
from .superposition import (SuperpositionRule, apply_rule,
                            first_integral_residual, solve_parameters,
                            verify_rule)
from .automorphic import (GroupAction, reconstruct, reconstruction_error,
                          reduce_system, solve_abelian, solve_matrix)
from .poisson import (PoissonBivector, adjoint_foliated_system,
                      check_rmatrix_hamiltonian, hamiltonian_residual,
                      is_foliated_lie_hamilton, jacobiator, kirillov_bivector,
                      linear_coordinates, poisson_bracket, rmatrix_bivector_aff,
                      rmatrix_hamiltonians)
from .util import Box

__version__ = "0.1.0"
