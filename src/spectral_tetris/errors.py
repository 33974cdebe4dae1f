"""Failure modes shared across the construction and verification layers.

Every error that a caller is expected to catch deliberately has its own
class; generic misuse (wrong types, k >= M and the like) raises plain
ValueError instead.
"""


class SpectralTetrisError(Exception):
    """Base class for all domain-specific failures."""


class DomainError(SpectralTetrisError):
    """Value outside the mathematical domain of an operation (e.g. sqrt of a negative)."""


class InvalidPartition(SpectralTetrisError):
    """A candidate partition is malformed: not increasing, out of range, or wrong endpoint."""


class SearchBudgetExceeded(SpectralTetrisError):
    """An exhaustive search hit its state cap before settling the question.

    Where the search says so, states is what it spent and budget its cap
    (equal at a cut: the state past the cap is refused, not spent), and
    reach the deepest row (eigenvalue index) a fill search had read. Each is
    None where not set; the message is the same either way.
    """

    def __init__(self, message, *, states=None, budget=None, reach=None):
        super().__init__(message)
        self.states = states
        self.budget = budget
        self.reach = reach


class Underdetermined(SpectralTetrisError):
    """Fewer vectors than dimensions: no frame can exist."""


class OutOfRange(SpectralTetrisError):
    """Inputs violate a theorem's standing hypothesis (e.g. N outside (M, 2M))."""


class SumMismatch(SpectralTetrisError):
    """Trace condition violated: the eigenvalues do not sum to the required total."""


class BlockDomain(SpectralTetrisError):
    """Block parameter outside its admissible interval or weights inconsistent."""


class NoSuchBlock(SpectralTetrisError):
    """The requested 2x2 block does not exist for these norms and weight.

    This is the signal the re-ordering procedure reacts to.
    """


class Infeasible(SpectralTetrisError):
    """The requested object provably cannot be produced by this construction."""


class DftPathStuck(SpectralTetrisError):
    """The DFT-block greedy could not make a legal move; carries the step trace."""

    def __init__(self, message, steps=None):
        super().__init__(message)
        self.steps = list(steps or [])


class NotSTReady(SpectralTetrisError):
    """The given ordering of norms and eigenvalues defeats the greedy construction."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ReorderFailed(SpectralTetrisError):
    """Swapping adjacent norms could not unblock the construction."""


class NotParseval(SpectralTetrisError):
    """Operation requires a Parseval frame and the input is not one."""


class NoExtension(SpectralTetrisError):
    """No admissible tight extension parameter was found below the scan cap."""


class NotApplicable(SpectralTetrisError):
    """Hypotheses of the complement method are not met (e.g. a weight outside (0,1))."""


class SpectrumMismatch(SpectralTetrisError):
    """A reported spectrum disagrees with the one requested."""
