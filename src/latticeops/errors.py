"""Exception hierarchy shared across the toolkit."""


class LatticeOpsError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(LatticeOpsError, ValueError):
    """Operands live on lattices/grids of different dimension."""


class AliasingError(LatticeOpsError, ValueError):
    """Frequency grid too coarse for the requested lattice window."""


class OutOfWindowError(LatticeOpsError, ValueError):
    """Evaluation of a grid-backed object outside its window."""


class ParseError(LatticeOpsError, ValueError):
    """A data file is malformed: bad header, value, duplicate or off-grid row."""


class SymbolSyntaxError(LatticeOpsError, ValueError):
    """Symbol expression failed to parse.

    Carries the 0-based position of the offending character.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EllipticityError(LatticeOpsError, ValueError):
    """An operation requiring an elliptic symbol was refused."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConvergenceError(LatticeOpsError, RuntimeError):
    """Iterative solve failed to reach the target residual."""

    def __init__(self, message, best_iterate=None, residual_history=None):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.residual_history = residual_history if residual_history is not None else []
