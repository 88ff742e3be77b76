"""Operand-identity labels: mapping matrix uids back to graph names.

Stores are known by matrix uid.  For attribution ("which graph owns
this store?", read by :mod:`repro.obs.memory`'s reports) the serve layer
registers each graph here at ``register()`` time; :func:`labels`
resolves the registered graphs' *current* matrices — ``A``, the cached
``AT`` and the derived operands cached on the graph — to their label when
it is read, so a property rebuilt after ``invalidate_properties()`` is
attributed like the one it replaced.

Process-global; registration is an explicit, cheap opt-in (one weak
reference per registered graph).
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict

__all__ = ["register", "labels", "clear"]

_lock = threading.Lock()
_graphs: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def register(graph, label: str) -> None:
    """Label every matrix ``graph`` holds (see
    :meth:`repro.lagraph.Graph.matrices`) with ``label``."""
    with _lock:
        _graphs[graph] = str(label)


def labels() -> Dict[int, str]:
    """``{matrix uid: label}`` over the registered graphs, read now."""
    with _lock:
        graphs = list(_graphs.items())
    return {m._uid: label for g, label in graphs for m in g.matrices()}


def clear() -> None:
    with _lock:
        _graphs.clear()
