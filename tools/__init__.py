"""Repository tooling (``python -m tools.reprolint``, ``python -m tools.reach``).

This package exists so the static-analysis framework under
``tools/reprolint`` and the call census in ``tools/reach.py`` are
importable as modules from the repository root.
"""
