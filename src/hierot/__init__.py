"""Computing in nested Wasserstein spaces over Euclidean space and the sphere.

Discrete hierarchical measures, exact optimal transport with certificates,
velocity plans and couplings, geodesics with parallel transport, and
first-order calculus of functionals, each backed by executable invariant
checks (see :mod:`hierot.checks` and the ``hierot check`` command).
"""

from .errors import (BaseMismatch, CouplingMismatch, DeskScaleError,
                     HierotError, InvalidInput, InvalidPoint, LevelMismatch,
                     NonUnitMass, NotOptimalInput, NumericalFailure,
                     SchemaError, TooLarge, UnbalancedMarginals)
from .manifolds import Manifold, euclidean, sphere
from .measures import (BaseSupport, HierMeasure, base_support, canonicalize,
                       collapse, dirac, dirac_lift, mixture, n_expectancy,
                       push_leaf, unroll, validate, w2_to_dirac)
from .exact_ot import (DualPotentials, TransportPlan, permutation_oracle,
                       solve_ot, verify_optimality)
from .wasserstein import cost_matrix, measures_close, w2, w2_sq
from .plans import (Coupling, CouplingEntry, FiberEntry, VelocityPlan, add,
                    exp_push, fd_add, fd_from_field, fd_scale,
                    generic_coupling, inner_mu, is_fully_deterministic,
                    optimal_coupling, plan_norm, scale, sub, w_mu, zero_plan)
from .geodesics import (SpeedReport, interpolate, optimal_velocity_plan, pt_n,
                        restriction_plan, verify_constant_speed)
from .functionals import (DescentTrace, DistanceTerm, FunctionalSpec,
                          GeneralizedGeodesicCurve, GeodesicCurve, Potential,
                          PotentialTerm, convexity_check, eval_functional,
                          generalized_geodesic, grad_potential,
                          gradient_descent, gradient_step, make_linear_ambient,
                          make_quadratic, supergradient_inequality_check,
                          taylor_remainder_check, w2_supergradient)
from .serialization import (load_measure, load_plan, measure_from_obj,
                            measure_to_obj, plan_from_obj, plan_to_obj,
                            save_measure, save_plan)

__version__ = "0.1.0"
