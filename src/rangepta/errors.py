"""Exception types shared across the package."""


class PtaError(Exception):
    """Base class for all analysis errors."""


class UnknownTypeError(PtaError):
    """An undeclared or unusable type.  decl, when set, names the type
    declaration or array type mention that refers to it."""

    def __init__(self, message, decl=None):
        self.decl = decl
        super().__init__(message)


class DuplicateTypeError(PtaError):
    pass


class InheritanceCycleError(PtaError):
    pass


class DuplicateNameError(PtaError):
    pass


class UndeclaredVariableError(PtaError):
    pass


class FactSyntaxError(PtaError):
    """Syntax error in the fact format, with a source position."""

    def __init__(self, message, line, column=None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, col {column}"
        super().__init__(f"{where}: {message}")


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
