"""Repository tooling (``python -m tools.reprolint``).

This package exists so the static-analysis framework under
``tools/reprolint`` is importable as a module from the repository root.
"""
