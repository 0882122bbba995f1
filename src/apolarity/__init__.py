"""Exact computer algebra for apolarity: graded Artinian algebras from
Macaulay dual generators or ideals, Hilbert functions, Jordan types and
Jordan degree types of linear forms, and closed-form verification for
full Perazzo algebras."""

from .exactlinalg import (
    FieldMismatchError,
    FieldSpec,
    GF_DEFAULT,
    Matrix,
    QQ,
)
from .polyring import (
    LinearForm,
    Polynomial,
    VariableSet,
    VariableSetMismatchError,
    contract,
    exponent_tuples,
)
from .apolar import (
    AnnBasis,
    CharacteristicError,
    GradedAlgebraModel,
    HFStats,
    HVector,
    NotArtinianError,
    annihilator_basis,
    catalecticant,
    compressed_hf,
    hf_stats,
    hilbert_function,
    model_from_dual,
    model_from_ideal,
    mult_matrix,
)
from .jordan import (
    JordanDegreeType,
    JordanString,
    LefschetzFlags,
    Partition,
    RankProfile,
    conjugate_partition,
    dominance_compare,
    jordan_degree_type,
    jordan_strings,
    jordan_type,
    lefschetz_check,
    rank_profile,
    strings_degree_type,
)
from .perazzo import (
    CASE_I,
    CASE_II,
    CASE_III,
    LinearFormCase,
    PerazzoParams,
    PredictedJordan,
    SampleRecord,
    VerificationReport,
    a_bounds,
    a_max_realizing_form,
    a_min_realizing_form,
    chain_partitions,
    classify_linear_form,
    dual_of_x_contraction,
    full_perazzo_form,
    generic_part_count,
    hankel_hf,
    perazzo_dim,
    perazzo_hf,
    predicted_jordan,
    symmetric_dual_generator,
    verify_full_perazzo,
    y_ring_varset,
)

__version__ = "0.1.0"
