"""Numeric jet calculus for double velocities, the principal jet group and
double contact elements, with canonical forms and a holonomic/curvature
decomposition."""

from .actions import act_L_velocity, act_P_double, is_rho_regular, solve_transporter
from .contact import (ContactElement, DoubleContactElement,
                      QuotientVerticalVector, affine_add_contact, contact_equal,
                      contact_of, contact_plane_of, decompose_contact,
                      double_contact_equal, double_contact_of,
                      is_holonomic_contact, is_semiholonomic_contact,
                      representative, split_quotient, vertical_quotient,
                      vertical_quotient_by_action)
from .core import (Dims, DoubleVelocity, Velocity, VerticalVector,
                   affine_add_vertical, as_vertical_double, double_equal,
                   exchange, inner_projection, is_holonomic, is_inner_regular,
                   is_regular, is_semiholonomic, is_tau_regular, is_vertical,
                   make_holonomic, outer_projection, split_semiholonomic,
                   velocity_equal)
from .groups import (JetGroupElement, PrincipalJetElement,
                     SecondOrderJetElement, compose_L, compose_P, embed_L,
                     exchange_P, factor_P, factor_semiholonomic,
                     from_second_order, identity_L, identity_P, inverse_L,
                     inverse_P, is_curvature_P, is_holonomic_P,
                     is_semiholonomic_P, lambda_P, mu_P, symmetrize_P,
                     to_second_order)
from .linalg import DEFAULT_TOL, ChartError
from .oracle import (BiPolyMap, PolyMap, act_oracle, compose_second_order,
                     double_jet_of, jet_of, prolong, rho_regular_fd,
                     swap_arguments, to_bipoly)

__version__ = "0.1.0"
