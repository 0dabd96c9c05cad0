"""Exception types shared across the package."""


class ShrimplabError(Exception):
    """Base class for all package errors."""


class FieldError(ValueError):
    """An invalid value of one named field of a spec, or of its part section."""

    def __init__(self, field, message, section=None):
        self.field, self.section = field, section
        super().__init__(message)


class ConfigError(ShrimplabError):
    """Bad configuration input (file, key, or override)."""

    def __init__(self, message, key=None, line=None):
        self.key = key
        self.line = line
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"key '{key}': "
        super().__init__(prefix + message)


class EscapeError(ShrimplabError):
    """An orbit left the trusted radius during iteration."""

    def __init__(self, message, step=None):
        self.step = step
        super().__init__(message if step is None else f"{message} (step {step})")


class ConvergenceError(ShrimplabError):
    """An iterative solver failed to reach its tolerance."""


class NumericalError(ShrimplabError):
    """A numerical routine produced an unusable result."""
