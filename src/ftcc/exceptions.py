"""Error types raised across the library.

Every failure mode named in a module contract gets its own class so callers
can catch precisely, and so CLI validation messages stay actionable.
"""


class FtccError(Exception):
    """Base class for all library errors."""


class InvalidInputError(FtccError, ValueError):
    """Malformed argument: wrong shape, non-finite entries, bad length."""


class NoKernelError(FtccError):
    """Kernel extraction requested on a matrix that is full rank at the tolerance."""


class DegenerateKernelError(FtccError):
    """Kernel exists but its last entry vanishes, so it cannot be normalized."""


class ProtocolViolationError(FtccError):
    """A node attempted to send along a non-existent directed edge."""


class DegenerateInitializationError(FtccError):
    """Hankel defectiveness never appeared, or a stored kernel failed its check.

    ``history`` holds every node's numerator iterates, shape (N, rounds+1, n),
    so the caller can perturb the initial values and retry.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


class UncontrollableDirectionError(FtccError):
    """Placement requested through an input direction the eigenvalue cannot see."""


class InsufficientTargetsError(FtccError):
    """The target list ran out while placeable eigenvalues remained."""


class ProtocolFailureError(FtccError):
    """A gain-token pass cannot finish.

    Its walk has visited every node without meeting the stop condition, ran
    past its hop cap or met a node with no out-neighbors; a column's
    placement loop does not converge; its read-only flood cannot reach every
    node; or a consumed target is not on the closed-loop spectrum.  Leader
    election that does not converge raises it too.
    """


class ConfigError(FtccError, ValueError):
    """Scenario configuration failed validation; message names the offending field."""


class DisconnectedGraphError(ConfigError):
    """The communication digraph is not strongly connected."""


class JointSystemError(ConfigError):
    """The plant is not jointly controllable and observable."""
