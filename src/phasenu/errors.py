"""Exception taxonomy shared across the package.

Every failure mode a caller can act on gets its own class; the CLI maps any
``PhasenuError`` to exit code 3 with the class name on stderr.
"""


class PhasenuError(Exception):
    """Base class for all solver-domain failures."""


class BranchPointError(PhasenuError, ValueError):
    """Evaluation requested at the branch point z = 0 of a fractional or
    negative power."""


class NoBranch(PhasenuError):
    """No (K, sign) combination yields a decaying, weight-admissible tau."""


class RodriguesFailure(PhasenuError):
    """The Rodrigues polynomial is not representable in floats: a
    coefficient overflows, or its degree falls short of n."""


class LevelTooHigh(PhasenuError):
    """The level n is above the bound that a check of its state admits."""


class NoSignChange(PhasenuError):
    """The eigenvalue residual has no zero at a positive kappa in the float
    range, or fails its gate there."""


class UnsupportedBranch(PhasenuError, ValueError):
    """The requested coefficient-product branch has no closed form here."""


class UnsupportedRecovery(PhasenuError, ValueError):
    """The operator point does not degenerate to configuration space."""


class ForbiddenCombination(PhasenuError, ValueError):
    """Transform generators from both coefficient groups cannot be mixed."""


class WavefunctionDependentAngle(PhasenuError, ValueError):
    """The requested phase angle depends on the wavefunction itself and is
    not numerically evaluable from (r, p) alone."""


class GridTooCoarse(PhasenuError):
    """The radial grid cannot resolve the requested states."""
