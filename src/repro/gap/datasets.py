"""Registry of the benchmark graph suite (Table IV, scaled down).

``SUITE`` maps each Table IV graph name to its generator configuration at
three sizes — ``tiny`` (unit tests), ``small`` (the harness default, the
ratio guards and ``bench/``'s road and serve workloads) and ``medium``
(``bench/``'s ``gap_lowdiam``).  The paper's graphs hold 58 M – 4.2 B
entries; the ``small`` tier holds 10⁴–10⁵, preserving the structural
contrasts that drive Table III (see :mod:`repro.gap.generators.graphs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from ..lagraph.graph import Graph
from . import generators

__all__ = ["GraphSpec", "SUITE", "SIZES", "build", "suite_table"]

SIZES = ("tiny", "small", "medium")


@dataclass(frozen=True)
class GraphSpec:
    """One Table IV row: a named graph at several scales."""

    name: str
    kind: str                      # "directed" | "undirected"
    builder: Callable[..., Graph]
    params: Dict[str, Dict]        # size -> builder kwargs

    def build(self, size: str = "small", weighted: bool = False) -> Graph:
        if size not in self.params:
            raise KeyError(f"{self.name}: unknown size {size!r}")
        kw = dict(self.params[size])
        if self.name == "road":
            kw["weighted"] = True if weighted or kw.get("weighted") else False
        else:
            kw["weighted"] = weighted
        return self.builder(**kw)


SUITE: Dict[str, GraphSpec] = {
    "kron": GraphSpec(
        "kron", "undirected", generators.kron,
        {"tiny": {"scale": 8}, "small": {"scale": 12}, "medium": {"scale": 14}},
    ),
    "urand": GraphSpec(
        "urand", "undirected", generators.urand,
        {"tiny": {"scale": 8}, "small": {"scale": 12}, "medium": {"scale": 14}},
    ),
    "twitter": GraphSpec(
        "twitter", "directed", generators.twitter,
        {"tiny": {"scale": 8}, "small": {"scale": 12}, "medium": {"scale": 14}},
    ),
    "web": GraphSpec(
        "web", "directed", generators.web,
        {"tiny": {"scale": 8}, "small": {"scale": 12}, "medium": {"scale": 14}},
    ),
    "road": GraphSpec(
        "road", "directed", generators.road,
        {"tiny": {"side": 24}, "small": {"side": 72}, "medium": {"side": 160}},
    ),
}


def build(name: str, size: str = "small", weighted: bool = False) -> Graph:
    """Build a suite graph by Table IV name."""
    try:
        spec = SUITE[name.lower()]
    except KeyError:
        raise ValueError(f"unknown graph {name!r}; one of {sorted(SUITE)}") \
            from None
    return spec.build(size, weighted=weighted)


def suite_table(size: str = "small"):
    """Table IV rows for the generated graphs: (name, nodes, entries, kind)."""
    rows = []
    for name, spec in SUITE.items():
        g = spec.build(size)
        rows.append((name, g.n, g.nvals, spec.kind))
    return rows
