"""Exception types shared across the package."""


class PtaError(Exception):
    """Base class for all analysis errors."""


class DeclError(PtaError):
    """An error in the type declarations.  decl, when set, names the type
    declaration or array type mention the error is reported at."""

    def __init__(self, message, decl=None):
        self.decl = decl
        super().__init__(message)


class UnknownTypeError(DeclError):
    """An undeclared or unusable type."""


class DuplicateTypeError(PtaError):
    pass


class InheritanceCycleError(DeclError):
    pass


class DuplicateNameError(PtaError):
    pass


class UndeclaredVariableError(PtaError):
    pass


class FactSyntaxError(PtaError):
    """Syntax error in the fact format, with a source position."""

    def __init__(self, message, line):
        self.line = line
        super().__init__(f"line {line}: {message}")


class InvalidParamsError(PtaError):
    pass


class ConfigMismatchError(PtaError):
    pass


class ConfigConflictError(PtaError):
    pass


class IndexOutOfRangeError(PtaError):
    pass


class UnsupportedKindError(PtaError):
    pass


class UniverseMismatchError(PtaError):
    pass
