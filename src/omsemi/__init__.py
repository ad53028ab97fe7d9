"""Finite semigroups, syntactic semigroups, and omega-term identities."""

__version__ = "0.1.0"

from .semigroup import (
    FiniteSemigroup,
    GeneratorMap,
    GreenClasses,
    MonogenicData,
    green_classes,
    stabilized_prime_power_residue,
)
from .dfa import (
    Dfa,
    compile_min_dfa,
    enumerate_accepted,
    has_common_word,
    is_empty,
    is_finite_language,
    languages_equal,
)
from .regex import dfa_to_regex, format_regex, parse_regex
from .syntactic import SyntacticPresentation, syntactic_semigroup
from .terms import (
    Concat,
    FinitePower,
    Letter,
    OmegaPower,
    PrimeOmegaPower,
    Word,
    bounded_factors,
    eval_term,
    find_identity_failure,
    format_term,
    identity_failures,
    iterated_commutator,
    parse_term,
    satisfies_identity,
    term_alphabet,
    unroll,
)
from .words import (
    count_occurrences,
    is_cube_free,
    ptm_iterate,
    scattered_subword,
)
from .enumeration import enumerate_semigroups
from .groups_catalog import all_groups_up_to_24
from .varieties import (
    ab_satisfies,
    check_identity,
    com_satisfies,
    cr_sample_satisfies,
    g_satisfies,
    jplus_leq,
)
from .reducibility import (
    SolutionTriple,
    VerificationReport,
    bounded_omega_solution_search,
    integer_exponent_system,
    jplus_word_solution,
    loop_removal,
    simple_path_word,
    syntactic_solution_triple,
    verify_com_counterexample,
    verify_cr_counterexample,
    verify_groups_counterexample,
)
