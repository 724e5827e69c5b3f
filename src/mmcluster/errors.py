"""Exception types shared across the package."""


class MMClusterError(Exception):
    """Base class for all mmcluster errors."""


class InvalidInput(MMClusterError):
    """Malformed argument: non-finite entries, shape mismatch, out-of-range parameter."""


class EmptyNeighborhood(MMClusterError):
    """A radius neighborhood contains no points."""


class ZeroCovariance(MMClusterError):
    """Thresholded dimension estimation received the zero matrix."""


class NoSurvivors(MMClusterError):
    """Reassignment requested but the survivor set is empty."""


class AllPointsRemoved(MMClusterError):
    """The intersection-removal step deleted every data point."""


class TooFewCenters(MMClusterError):
    """An operation needs more centers than are available."""


class TooFewRows(MMClusterError):
    """K-means asked for more clusters than rows."""


class NoPairsInRange(MMClusterError):
    """Automatic scale selection found no center pair within the spatial scale."""


class IsolatedNode(MMClusterError):
    """Spectral partitioning received an affinity matrix with a zero-degree node."""


class DimensionMismatch(MMClusterError):
    """Tangent dimensions differ where the method assumes they are equal."""


class UnknownDataset(MMClusterError):
    """Dataset name not recognized by the generator."""
