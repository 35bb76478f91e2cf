"""Exception hierarchy shared by all effheis modules."""


class EffheisError(Exception):
    """Base class for all library errors."""


class ValidationError(EffheisError):
    """A matrix violates a structural constraint of its Hamiltonian class."""


class NotHermitian(ValidationError):
    pass


class NotSymmetric(ValidationError):
    pass


class NotAntisymmetric(ValidationError):
    pass


class NotTildeAntisymmetric(ValidationError):
    pass


class NotTildeSymmetric(ValidationError):
    pass


class Overflow(EffheisError):
    pass


class DimensionOverflow(EffheisError):
    pass


class DimensionMismatch(EffheisError):
    pass


class IndexOutOfRange(EffheisError):
    pass


class TooManyModes(EffheisError):
    pass


class UnsupportedOrder(EffheisError):
    pass


class StepTooLarge(EffheisError):
    pass


class GridMismatch(EffheisError):
    pass


class FrameMismatch(EffheisError):
    """Two series hold their entries in different resonance frames."""


class DegenerateFit(EffheisError):
    """Every error of an order study is round-off: the model is exactly solvable."""

    def __init__(self, message: str, errors: list):
        super().__init__(message)
        self.errors = errors


class ConfigError(EffheisError):
    pass
