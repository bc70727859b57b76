"""Numerical toolkit for electromagnetic duality structures of 4d
Einstein-scalar-Maxwell systems: couplings/tamings/Siegel points, duality
group algebras, twisted self-dual field algebra, finite-difference
equation-of-motion residuals, flat-bundle centralizers and real Killing
spinor verification."""

from .errors import EmdualityError, InputError, UsageError
from .symplectic import (DimensionError, DomainError, ElectromagneticPair,
                         PoleError, SiegelPoint, Taming, conjugate_taming,
                         fractional_action, gamma, gamma_inv,
                         infinitesimal_fractional_action, mu, mu_inv, omega,
                         random_couplings, random_sp, random_taming, sp_basis,
                         sp_check)
from .models import (Model, ScalarChart, TransformedModel, builtin,
                     load_model, parse_isometry, parse_model, print_model)
from .duality import (KillingBasis, StabilizerReport, UDualityReport,
                      check_uduality_pair, killing_basis, lift_killing_field,
                      stab_sp_algebra, uduality_algebra)
from .holonomy import (BundlePresentation, autb_theta_algebra,
                       centralizer_algebra, conjugacy_invariants, parse_bundle,
                       presentation_check)
from .fields import (assemble_V, complexify_minus, complexify_plus, hodge2,
                     oslash_Q, oslash_g, project_sd, selfduality_violation,
                     stress_gauge, stress_gauge_couplings, stress_scalar,
                     twisted_pairing, twisted_star)
from .grids import (WHOLE, FieldConfiguration, GridPatch, christoffel, einstein,
                    einstein_residual, equivariance_harness,
                    make_configuration, maxwell_residual, parse_grid_config,
                    residual_report, ricci, scalar_residual, transport_config)
from .spinors import (GAMMA, FramePatch, builtin_frame, chiral_operator_check,
                      extract_kappa, integrate_killing, killing_bilinears,
                      killing_residual, path_defect, slash, spin_connection,
                      verify_thm53)

__version__ = "0.1.0"
