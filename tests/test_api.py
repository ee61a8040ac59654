"""The public API of the package, pinned.

Adding or removing an export is a deliberate edit of this list, logged in
CHANGES.md with the change that makes it.
"""

import constrex

EXPORTS = [
    # exceptions
    "ConfigError", "ConstrexError", "ParseError", "PreconditionError",
    "TruthTableLimitError", "UnsupportedAlphabetError",
    # nodes
    "App", "Atom", "Cat", "Conn", "Constraint", "Empty", "Environment", "Match",
    "Star", "Sum", "Var", "Word",
    # syntax and parsing
    "apply_subst_set", "check_subst_set", "expr_str", "expr_variables",
    "formula_str", "parse_environment", "parse_expression", "parse_formula",
    "parse_term", "subst_set_str", "subterms", "term_of_word", "term_str",
    "variables_of", "word_str",
    # semantics
    "FiniteRelation", "Interpretation", "Realization", "TableFunction",
    "eval_formula", "eval_term", "membership_fixed", "regex_derivative",
    "regex_str", "regularize",
    # derivation and nullability
    "associated_realization", "const_null", "derive_expr", "derive_expr_word",
    "derive_paths", "derive_word", "erase_vars", "indicator_set", "null_fixed",
    "null_fixed_via_indicator", "simplify", "simplify_expr",
    # logic
    "Witness", "build_witness", "left_dot_level", "membership_general",
    "normalize_formula", "normalize_term", "null_general", "prop_alphabet",
    "sat_truth_table", "satisfiable_free", "separator_word", "terms_of_formula",
    # oracle
    "Bound", "brute_membership_fixed_I", "brute_membership_fixed_r",
    "brute_satisfiable_free", "enumerate_language", "sample_interpretations",
    # the submodules the package imports
    "derivation", "errors", "logic", "nullability", "oracle", "parser",
    "semantics", "syntax",
]


def test_public_api_is_pinned():
    assert sorted(constrex.__all__) == sorted(EXPORTS)
