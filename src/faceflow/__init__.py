"""Facial-region motion intensity from dense Lucas-Kanade optical flow.

The pipeline: decode a frame sequence (imageio), compute dense flow between
frame pairs (flow), segment the frame into a grid of named facial regions
(regions), reduce each flow field to per-region mean displacement magnitudes
(intensity), and extract onset/apex/offset events and region rankings from
the resulting time series (analysis). The synth module generates sequences
with exactly known motion for testing, and cli wires everything into the
faceflow command.
"""

from . import analysis, errors, flow, imageio, intensity, regions, synth
from .analysis import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .flow import *  # noqa: F401,F403
from .imageio import *  # noqa: F401,F403
from .intensity import *  # noqa: F401,F403
from .regions import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    "__version__",
    *imageio.__all__,
    *regions.__all__,
    *flow.__all__,
    *intensity.__all__,
    *analysis.__all__,
    *synth.__all__,
    *errors.__all__,
]
