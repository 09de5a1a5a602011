"""Norm monoids of quadratic orders, and valuation-net factorization models.

The package studies one multiplicative invariant of a quadratic order R:
its normset N(R \\ {0}) inside the integers, as a monoid in its own right.
Membership runs over two independent backends (element search and ideal
classes), factorization questions are answered over exhaustive windows
with re-verifiable witnesses, and the half-factoriality classification of
imaginary orders is reproduced end to end. A separate simulator treats
element norms as valuation nets over an index set, where the classical
non-ACCP sequence-domain behavior can be replayed step by step.
"""

from .arith import divisors, factorize, is_square, is_squarefree, kronecker
from .class_groups import (BQForm, ClassGroupData, class_group,
                           class_group_imaginary, class_group_real,
                           class_number, compose, form_cycle,
                           ideal_class_options, minkowski_bound,
                           narrow_class_group_real, prime_form, principal_form,
                           reduce_form, reduced_forms,
                           reduced_indefinite_forms, splitting_type)
from .errors import (BadDiscriminant, CapExceeded, IndexMismatch, NeedsBound,
                     NormsetLabError, NotMember, SearchBudgetExceeded,
                     UsageError, WitnessSearchExhausted)
from .hfd_lab import (HfdVerdict, bounded_hfd_check, carlitz_verdict,
                      classification_check, elasticity_via_davenport,
                      order_hfd_witness)
from .monoid_core import (AbelianGroup, FactorMultiset, FactorSession,
                          MonoidView, WindowElasticity, WindowVerdict,
                          davenport, davenport_witness, elasticity_window,
                          is_hfm_window, is_length_factorial_window,
                          is_ufm_window, numerical_monoid_view)
from .normsets import (NormsetHandle, UfdCertificate, Verdict,
                       factor_in_normset, irreducibles_up_to, is_saturated,
                       is_strictly_saturated_window, is_ufd,
                       norm_group_window, normset_monoid_view, normset_of,
                       strong_saturation_check)
from .quadratic import (QuadElem, QuadraticField, QuadraticOrder,
                        canonical_associate, elements_of_norm,
                        element_monoid_view, exact_real_search_bound,
                        factor_element, fundamental_unit, is_irreducible,
                        norm_plus_unit, order_fundamental_unit, order_of,
                        parse_element, units)
from .valnet_sim import (DivisorCount, EpsVal, IndexSet, NetMonoid,
                         SearchOutcome, ValNet, S_b, accp_chain, bfd_bound,
                         comaximal_family, divides, e_net, eps_add,
                         find_atomic_factorization, finite_cover_check,
                         finite_indices, ffd_window, generated_monoid,
                         ideal_norm, ideal_norm_product_check,
                         idempotent_cover_check, inf_S_b, length,
                         load_net_monoid, make_net, monoid_divisors,
                         net_add, net_factorizations, net_leq, net_lt,
                         net_sub, omega_indices, omega_net, parse_net,
                         parse_value, q_net, sequence_domain, zero_net)

__version__ = "0.1.0"
