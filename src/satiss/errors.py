"""Exception types shared across the library."""


class GridMismatchError(ValueError):
    """Operands live on different grids or have inconsistent dimensions."""


class ParameterError(ValueError):
    """A parameter is outside its admissible range."""


class DissipativityGateFailed(RuntimeError):
    """The discrete generator's symmetric part is not negative definite: the
    Cholesky factorisation of -sym(A) fails at its leading minor ``order``."""

    def __init__(self, lambda_max, order):
        self.lambda_max = float(lambda_max)
        self.order = int(order)
        super().__init__(
            "the symmetric part is not negative definite: the Cholesky factorisation "
            "of -sym(A) fails at its leading minor of order %d "
            "(lambda_max(sym A) = %.3e)"
            % (self.order, self.lambda_max)
        )


class InfeasibleParameters(RuntimeError):
    """No admissible Lyapunov parameters exist for the supplied constants."""


class ConfigError(ValueError):
    """An experiment configuration failed to parse or validate."""


class CertificationError(RuntimeError):
    """A stability certificate could not be established on the given data."""


class SimulationDiverged(RuntimeError):
    """A recorded state or norm of an integration is not finite."""

    def __init__(self, step, member, quantity="state"):
        self.step = int(step)
        self.member = int(member)
        self.quantity = quantity
        super().__init__("%s of member %d is not finite at step %d"
                         % (quantity, self.member, self.step))
