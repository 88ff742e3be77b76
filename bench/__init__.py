"""The repository's benchmark: four workloads, one command.

``python3 -m bench.run`` runs every workload in its own subprocess and
prints the end-to-end metrics and the per-layer table; see ``README.md``
in this directory for the metric glossary and how to read the numbers.
"""
