"""Exception hierarchy for herzlab.

Every error raised by the library derives from :class:`HerzlabError` so
callers can catch library failures without masking programming errors.
"""


class HerzlabError(Exception):
    """Base class for all herzlab errors."""


# --- dilation geometry ---

class NotExpansive(HerzlabError):
    """Matrix has an eigenvalue of magnitude <= 1."""


class NotSquare(HerzlabError):
    """Matrix is not square."""


class BadDim(HerzlabError):
    """Dimension outside the supported range (1 or 2)."""


class OriginQuery(HerzlabError):
    """Annulus index requested at x = 0."""


class EmptySamples(HerzlabError):
    """A sample-based check received no samples."""


# --- grids and variable-exponent norms ---

class GridMismatch(HerzlabError):
    """Two grid functions live on different grids."""


class BadGrid(HerzlabError, ValueError):
    """A grid or grid function no grid can hold (also a ValueError)."""


class NonPositiveLambda(HerzlabError):
    """Modular evaluated at lambda <= 0."""


class NotInClassP(HerzlabError):
    """Exponent violates 1 < p^- <= p^+ < inf."""


class EmptyBall(HerzlabError):
    """Ball has no grid cells."""


class InsufficientRange(HerzlabError):
    """Too few scale indices for a regression."""


class ReciprocalMismatch(HerzlabError):
    """Derived exponent from a reciprocal relation leaves class P."""


class NormOverflow(HerzlabError):
    """A norm or a weighted sample exceeds the float range."""


# --- sequences ---

class BadExponent(HerzlabError):
    """Sequence-norm exponent below 1."""


class BadParams(HerzlabError):
    """Parameter combination violates a precondition."""


# --- Herz-type norms ---

class OutOfCoverage(HerzlabError):
    """Annulus lies wholly outside the grid box."""


class TailUnbounded(HerzlabError):
    """Truncated scale sum has a non-summable tail."""


class ZeroFunction(HerzlabError):
    """Operation requires a nonzero function."""


class ParamMismatch(HerzlabError):
    """Parameter triples do not satisfy the required relations."""


# --- operators ---

class CutoffTooSmall(HerzlabError):
    """Kernel truncation below one grid-cell scale."""


class EmptyGrid(HerzlabError):
    """Sweep received an empty parameter grid."""


# --- atoms ---

class UnresolvableScale(HerzlabError):
    """A scale the grid or float range cannot resolve: an annulus index
    beyond the representable scales, a ball with no cells, or a dilated
    mollifier support spanning fewer than 4 cells."""


class IllConditioned(HerzlabError):
    """Moment-correction system too ill-conditioned."""


class NonZeroMean(HerzlabError):
    """Atom-based check requires vanishing mean."""


class InvalidAtom(HerzlabError):
    """Atom failed validation where a valid atom is required."""


# --- CLI / configuration ---

class ConfigError(HerzlabError):
    """Configuration file or value cannot be parsed."""


class IoError(HerzlabError):
    """Referenced input file missing or unreadable."""


class UnknownTarget(HerzlabError):
    """Oracle target name not recognized."""
