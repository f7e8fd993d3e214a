"""Exception types shared across the package."""


class FlowSteerError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(FlowSteerError, ValueError):
    """Operands have incompatible dimensions."""


class TensorFormatError(FlowSteerError, ValueError):
    """A tensor or image file is malformed (bad header, truncated payload, ...)."""


class ConfigError(FlowSteerError, ValueError):
    """A run configuration is invalid; carries the offending key path."""

    def __init__(self, key_path: str, message: str):
        super().__init__(f"{key_path}: {message}")
        self.key_path = key_path


class NonFiniteStateError(FlowSteerError, FloatingPointError):
    """The trajectory state went non-finite; carries the failing step index."""

    def __init__(self, step_index: int, message: str = "non-finite trajectory state"):
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index
