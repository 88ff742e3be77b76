"""``repro.gap`` — the evaluation substrate (Sec. VI of the paper).

* :mod:`~repro.gap.generators` — scaled synthetic stand-ins for the five
  GAP benchmark graphs (Table IV);
* :mod:`~repro.gap.baselines` — reference kernels playing the GAP C++
  role in Table III (and doubling as correctness oracles);
* :mod:`~repro.gap.verify` — GAP-style output verifiers;
* :mod:`~repro.gap.datasets` — the suite registry at three sizes;
* :mod:`~repro.gap.harness` — regenerates Tables III and IV
  (``python -m repro.gap.harness``).
"""

from importlib import import_module

from . import baselines, datasets, generators, graphalytics, verify
from .datasets import SUITE, build, suite_table

__all__ = ["baselines", "datasets", "generators", "graphalytics", "harness", "verify",
           "SUITE", "build", "suite_table"]


def __getattr__(name: str):
    # ``harness`` is also the ``python -m`` entry point: imported here
    # eagerly it is already in ``sys.modules`` when runpy goes to execute
    # it, which runpy reports as a RuntimeWarning on every CLI run
    if name == "harness":
        return import_module(".harness", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
