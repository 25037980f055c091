"""Exception types shared across the library."""


class GridMismatchError(ValueError):
    """Operands live on different grids or have inconsistent dimensions."""


class ParameterError(ValueError):
    """A parameter is outside its admissible range."""


class DissipativityGateFailed(RuntimeError):
    """The discrete generator is not negative semidefinite within tolerance."""

    def __init__(self, lambda_max, tolerance):
        self.lambda_max = float(lambda_max)
        self.tolerance = float(tolerance)
        super().__init__(
            "symmetric-part eigenvalue %.3e exceeds the gate tolerance %.3e"
            % (self.lambda_max, self.tolerance)
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
