"""Exception types shared across the toolkit."""


class VigtError(Exception):
    """Base class for all errors raised by this package."""


class UnprojectionError(VigtError):
    """Distortion inversion did not converge within the iteration budget."""


class InsufficientObservationsError(VigtError):
    """Fewer observations than the operation requires."""


class DegenerateGeometryError(VigtError):
    """Observation geometry is ill-posed (parallel rays, zero baseline, ...)."""


class NoConsensusError(VigtError):
    """Robust estimation found no model supported by enough inliers."""


class BehindCameraError(VigtError):
    """A refined point ended up behind a pinhole camera."""


class DegenerateConfigurationError(VigtError):
    """Point configuration does not constrain the requested transform."""


class SolverError(VigtError):
    """Optimization failed (non-finite residual/Jacobian, empty problem)."""

    def __init__(self, message: str, block_id: str | None = None):
        super().__init__(message)
        self.block_id = block_id


class RankDeficientError(VigtError):
    """Gauss-Newton Hessian is singular; covariance extraction impossible."""

    def __init__(self, message: str, nullity: int | None = None):
        super().__init__(message)
        self.nullity = nullity


class UnobservableError(VigtError):
    """Problem lacks the measurements needed to pin down the state."""


class ImuDataError(VigtError):
    """IMU stream is malformed or does not cover the requested interval."""

