"""Exception types shared across the package."""


class ConstrexError(Exception):
    """Base class for all errors raised by constrex."""


class ParseError(ConstrexError):
    """Raised on malformed environment files, expressions, formulas or terms."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        super().__init__(message)


class ConfigError(ConstrexError):
    """Raised when an interpretation, realization or environment is inconsistent."""


class PreconditionError(ConstrexError):
    """Raised when an operation's stated precondition is violated."""


class UnsupportedAlphabetError(ConstrexError):
    """Raised by the free-satisfiability pipeline on unary alphabets."""


class TruthTableLimitError(ConstrexError):
    """Raised when a propositional alphabet exceeds the symbol limit of the SAT search."""
