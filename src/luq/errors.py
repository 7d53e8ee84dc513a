"""Exception and warning types shared across the toolkit."""


class LuqError(Exception):
    """Base class for all toolkit errors."""


class EmptyInputError(LuqError):
    """An operation received an empty vector or dataset."""


class DimMismatchError(LuqError):
    """Array dimensions are inconsistent with the model or operation."""


class NotPositiveDefiniteError(LuqError):
    """A matrix required to be positive definite has a pivot <= 0.

    Usually signals a degenerate covariance; the caller must regularize.
    """


class TooFewSamplesError(LuqError):
    """Not enough data rows for the requested fit."""


class DegenerateComponentError(LuqError):
    """A mixture component lost all responsibility mass and could not be
    recovered by re-seeding."""


class ClassTooSmallError(LuqError):
    """A class has fewer samples than the fit requires."""


class MissingClassDensityError(LuqError):
    """The prior references a class the density model does not cover."""


class DivergedError(LuqError):
    """Training loss or likelihood became non-finite."""


class MomentInversionFailedError(LuqError):
    """Sample moments lie outside the parametric family's feasible range."""


class MassUnreachableError(LuqError):
    """The posterior mass available on the grid is below the target."""


class BadLayerIndexError(LuqError):
    """Requested hidden-layer index does not exist in the network."""


class BadKindError(LuqError):
    """Unknown perturbation or variant tag."""


class NotNormalizedError(LuqError):
    """Probabilities are negative or do not sum to one."""


class OneClassOnlyError(LuqError):
    """Ranking metrics need both positive and negative samples."""


class DataFormatError(LuqError):
    """A file failed to parse; message names the file and offending
    row or byte offset."""


class RankDeficientWarning(UserWarning):
    """PCA was asked for more directions than the data's numerical rank;
    trailing eigenvalues are zero."""
