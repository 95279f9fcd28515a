"""Exact-arithmetic formal loops, distribution bialgebras and their brackets.

The package computes, at a finite truncation degree and entirely over
exact rationals: formal loops and their two-sided divisions, the
convolution bialgebra of distributions, primitive operations and brackets,
the flat canonical connection with its torsion-derived brackets, the right
alternative modification and similarities, the non-associative exponential
and logarithm with their tree-indexed Bernoulli coefficients, and a small
catalog of concrete loops seeded from rational algebras.
"""

from .catalog import (
    AlgebraTable,
    builtin_algebra,
    builtin_loop,
    check_homomorphism,
    loop_from_algebra,
    loop_from_spec,
    nonlinear_loop_F,
    phi_G_to_F,
    x_squared_y_loop,
)
from .connection import (
    FlatConnection,
    FormalVectorField,
    adapted_field,
    connection_from_loop,
    covariant_derivative,
    ms_bracket_table,
    ms_brackets,
    torsion,
    vf_bracket,
)
from .dist import (
    DistBialgebra,
    brackets_invariance_check,
    check_linearized_identity,
    dist_su_ops,
    make_similar_product,
    pbw_span_check,
    su_bracket_table,
    su_multioperator_tables,
)
from .freealg import (
    FAElement,
    FATensor,
    FreeAlgebra,
    fa_associator,
    fa_commutator,
    fa_divide,
    fa_exp,
    fa_exp_inverse,
    fa_log,
    fa_loop_divide,
    p_operation,
    su_bracket,
    su_multioperator,
    su_multioperator_component,
)
from .maps import (
    FormalLoop,
    FormalMap,
    InvariantError,
    MemoryCapError,
    Prolongation,
    SimilarityMap,
    check_loop_identity,
    compose,
    eval_word,
    loop_division,
    multioperator_ms,
    prolong,
    right_alt_modify,
    similarity_between,
    table_cells,
)
from .symalg import SymElement, SymTensor, iterated_coproduct, merge_slots, split_slot
from .trees import (
    PlaneTree,
    bernoulli_number,
    bernoulli_tree_sum,
    bernoulli_weights,
    enumerate_trees,
    parse_tree,
    tree_stats,
    weighted_tree_sum,
)
from .words import (
    Identity,
    LDiv,
    LoopWord,
    Mul,
    RDiv,
    Unit,
    Var,
    WordSyntaxError,
    parse_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
