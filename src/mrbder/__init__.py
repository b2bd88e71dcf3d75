"""Exact computational algebra for associative algebras carrying a modified
Rota-Baxter operator and a compatible derivation.

The package verifies the defining identities, builds the standard
constructions (direct sums, semidirect products, induced structures, the
commutator Lie picture), computes the full cochain complex and its cohomology,
and works with truncated formal deformations and abelian extensions.  All
arithmetic is exact: Q or a prime field, never floats.
"""

from .fields import Field, ParseError, QQ
from .linalg import (EntryCapExceeded, Matrix, MultiTensor, ShapeError,
                     TensorSpace, matrix_as_tensor, max_tensor_entries,
                     operator_matrix, rank_and_kernel, rref_vectors,
                     set_max_tensor_entries, solve_linear, tensor_as_matrix)
from .structures import (Algebra, Bimodule, CheckFailure, CheckReport,
                         InvalidStructure, MRBDerPair, adjoint_bimodule,
                         check_associativity, check_bimodule, check_commutation,
                         check_derivation, check_modified_rb, dual_algebra,
                         dual_pair, is_homomorphism, scalar_pair,
                         upper_triangular_pair, verify_pair, zero_pair)
from .constructions import (KappaMismatch, LiePair, bimodule_rb_to_mrb,
                            check_lie_pair, check_rota_baxter,
                            commutator_bracket, commutator_lie_pair, direct_sum,
                            induced_algebra, induced_bimodule, rb_to_mrb,
                            rho_representation, semidirect_product)
from .cohomology import (DEFAULT_CONVENTION, Cochain, CochainSpace, CohomologyResult,
                         DegreeCapExceeded, OperatorMapConvention, PairSpace,
                         ce_delta, cochain_arities, cohomology,
                         convention_candidates, derivation_defect,
                         differential_matrix, hochschild_delta, hom_space,
                         induced_lie_pair, lie_derivation_defect,
                         lie_operator_map, lie_pair_delta, modified_delta,
                         modified_delta_via_induced, operator_delta,
                         operator_map, pair_delta, primitive, skew_cochain,
                         skew_symmetrize)
from .deformation import (Deformation, Gauge, apply_gauge, check_deformation,
                          derivation_scaling_deformation, equivalent_infinitesimals,
                          identity_gauge, infinitesimal, single_term_gauge,
                          trivialize, zero_deformation)
from .extension import (Extension, ExtensionClassification, build_extension,
                        canonical_section, check_extension, classify,
                        cocycles_cohomologous, derive_base, equivalence_map,
                        extensions_equivalent, extract_cocycle, fiber_retraction)
from .fuzzing import (FuzzInstance, check_instance, conjugate_bimodule,
                      conjugate_pair, random_instance, random_instances,
                      random_invertible, random_matrix)
from .serialize import (Instance, dumps_canonical, instance_to_json,
                        load_instance, load_instance_file, pair_to_json)

__version__ = "0.1.0"
