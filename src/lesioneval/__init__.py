"""Lesion-wise evaluation of 3D binary segmentation masks."""

__version__ = "0.1.0"

from .volume import Foreground, Volume, binarize, check_compatibility  # noqa: E402,F401
from .components import (  # noqa: E402,F401
    Lesion,
    LesionSet,
    find_connected_components,
)
from .matching import (  # noqa: E402,F401
    Overlap,
    generate_candidates,
    greedy_match,
    match_lesions,
    overlap,
)
from .metrics import (  # noqa: E402,F401
    ImageMetrics,
    LesionPairMetrics,
    SurfaceDistances,
    compute_image_metrics,
    compute_lesion_metrics,
    surface_distances,
)
from .nifti import read_foreground, read_volume, write_volume  # noqa: E402,F401
from .pipeline import ManifestRow, RunConfig, evaluate_pair, evaluate_sample  # noqa: E402,F401
from .stratify import DetectionCounts, rollup, stratify  # noqa: E402,F401
