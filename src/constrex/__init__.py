"""Constrained regular expressions and their derivatives.

Regular expressions extended with boolean-formula constraints (`E | phi`)
and variable matching (`alpha -| E`), together with the partial-derivative
membership test and the satisfiability pipeline deciding membership when
neither the interpretation nor the realization is fixed.
"""

from .errors import (
    ConfigError, ConstrexError, ParseError, PreconditionError,
    TruthTableLimitError, UnsupportedAlphabetError,
)
from .syntax import (
    App, Atom, Cat, Conn, Constraint, Empty, Environment, Match, Star, Sum,
    Var, Word,
    apply_subst_set, check_subst_set, expr_str, expr_variables, formula_str,
    subst_set_str, subterms, term_of_word,
    term_str, variables_of, word_str,
)
from .parser import parse_environment, parse_expression, parse_formula, parse_term
from .semantics import (
    FiniteRelation, Interpretation, Realization, TableFunction,
    eval_formula, eval_term, membership_fixed, regex_derivative, regex_str,
    regularize,
)
from .derivation import (
    associated_realization, const_null, derive_expr, derive_expr_word,
    derive_paths, derive_word, simplify, simplify_expr,
)
from .nullability import (
    erase_vars, indicator_set, null_fixed, null_fixed_via_indicator,
)
from .logic import (
    Witness, build_witness, left_dot_level, membership_general,
    normalize_formula, normalize_term, null_general, prop_alphabet,
    sat_truth_table, satisfiable_free, separator_word, terms_of_formula,
)
from .oracle import (
    Bound, brute_membership_fixed_I, brute_membership_fixed_r,
    brute_satisfiable_free, enumerate_language, sample_interpretations,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
