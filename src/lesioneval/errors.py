"""Exception hierarchy for lesioneval."""


class LesionEvalError(Exception):
    """Base class for all lesioneval errors."""


class BadMagic(LesionEvalError):
    """File is neither a NIfTI-1 file nor a JSON fixture (bad magic, header or fields)."""


class UnsupportedDatatype(LesionEvalError):
    """NIfTI datatype code outside the supported set."""


class TruncatedFile(LesionEvalError):
    """Voxel data shorter than the header promises."""


class Not3D(LesionEvalError):
    """Volume is not 3D (or 4D with a singleton 4th axis)."""


class IoFailure(LesionEvalError):
    """Filesystem write/read failure."""


class DimsMismatch(LesionEvalError):
    """GT and prediction grids have different dimensions."""


class SpacingMismatch(LesionEvalError):
    """GT and prediction voxel spacings differ beyond tolerance."""


class NotBinary(LesionEvalError):
    """Mask contains values other than 0 and 1."""


class EmptySet(LesionEvalError):
    """Surface-distance metric requested on an empty voxel set."""


class PlacementFailure(LesionEvalError):
    """Synthetic lesion placement failed after bounded retries."""


class ManifestParseError(LesionEvalError):
    """Evaluation manifest is malformed."""


class NanVoxels(LesionEvalError):
    """Volume holds NaN voxels, which no threshold can call lesion or background."""
