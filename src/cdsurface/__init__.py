"""Christoffel-Darboux kernels for non-Hermitian matrix weights, their
scalar counterparts on genus-0 Riemann surfaces, and correlation kernels
of doubly periodic lozenge-tiling models."""

from .contour import (DEFAULT_N, ContourQuadrature, circle_quadrature,
                      unit_circle_quadrature)
from .errors import (CDSurfaceError,
                     InconsistentParametersError, InvalidArgumentError,
                     NearContourWarning, PoleError, SingularSystemError,
                     SizeGuardError, UnsupportedFamilyError)
from .mops import (MatrixPolynomial, MOPSystem, assemble_Y, assemble_Yinv,
                   cd_kernel, cd_kernel_formula, cd_kernel_sum,
                   compute_moments, kernel_coefficients, kernel_from_Y,
                   kernel_integral, mop_system, pairing, solve_mops)
from .sops import solve_scalar_ops
from .surface import (Genus0Chart, build_chart, check_reproducing_plane,
                      check_reproducing_surface,
                      check_reproducing_surface_dual, frak_R,
                      r_lambda_matrix)
from .tiling import (ExactOracle, HexagonModel, KernelQuery, dk_evaluator,
                     dk_kernel, edge_weight, lgv_partition_function,
                     macmahon_count, point_probability,
                     simplified_kernel_2x1, simplified_kernel_2x2,
                     simplified_kernel_general, uniform_scalar_kernel)
from .weights import (CyclicUniform, Periodic2x1, Periodic2x2, ScalarMonomial,
                      TwoByTwoRootK, WeightFamily, check_spectral,
                      family_from_json, transfer_matrix)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
