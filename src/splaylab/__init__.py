"""splaylab: binary search tree executions, self-adjusting algorithms,
crossing lower bounds, tree transformations, and a brute-force optimal
execution oracle, with verification suites for the desk-scale theorems."""

__version__ = "0.1.0"
