"""Expected persistence measures as learning features.

Turns sampled metric measure spaces into persistence diagrams, estimates
expected persistence measures by kernel density estimation, computes
template-function features and the partial infinity-optimal-transport
distance, and trains polynomial softmax classifiers end to end.

The package exports only ``__version__``; import everything else from its
submodule, for example ``from empers.transport import ot_infinity``:
``measure`` (diagrams, measures, the ground metric), ``persistence``,
``samplers``, ``features``, ``learn``, ``transport``, ``compactness``,
``io``, ``config``, ``experiment`` (the pipeline stages) and ``cli``.
"""
from ._version import __version__

__all__ = ["__version__"]
