"""Reference connected components (the role of GAP's ``cc.cc``).

:func:`connected_components` runs SciPy's compiled union algorithm
(``csgraph.connected_components``), the tuned-native stand-in for GAP's
Afforest kernel.  Its labels are normalised to the minimum node id per
component, so they compare exactly against :func:`repro.lagraph.fastsv`.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import connected_components as _scipy_cc

from ...lagraph.graph import Graph

__all__ = ["connected_components"]


def _min_normalise(labels: np.ndarray) -> np.ndarray:
    """Relabel components by their minimum member id."""
    n = labels.size
    rep = np.full(int(labels.max()) + 1 if n else 0, np.iinfo(np.int64).max,
                  dtype=np.int64)
    np.minimum.at(rep, labels, np.arange(n, dtype=np.int64))
    return rep[labels]


def connected_components(g: Graph) -> np.ndarray:
    """Weak components via SciPy; labels = min node id per component."""
    _, labels = _scipy_cc(g.A.to_scipy(), directed=True, connection="weak")
    return _min_normalise(labels.astype(np.int64))
