"""The exception classes the CLI maps to exit codes.

They live apart from the modules that raise them so that the CLI's exit
table loads no mathematics; each raiser imports its class from here.
"""


class FormatError(ValueError):
    """Input that does not parse: a bad file, payload or command line."""


class ValidationError(ValueError):
    """Input rejected: not a valid in-scope normal-form hypersurface."""


class SeriesError(ArithmeticError):
    """A series operation outside its domain."""


class UpsilonError(ArithmeticError):
    pass


class EquivalenceError(ArithmeticError):
    pass
