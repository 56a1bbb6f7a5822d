"""Lepage equivalents of first-order Lagrangians on jet and Grassmann charts.

Subpackages build on each other in this order: ``expr`` (exact scalar
expressions; its parser and printers are in ``_dsl``, its evaluation and
sampled verdicts in ``_sampling``, so that no process compiles the core in
one piece), ``charts`` (jet/adapted charts and total derivatives),
``forms`` (exterior algebra), ``equivalents`` (Lepage constructors and
Euler-Lagrange machinery), ``homogeneity`` (Zermelo and equivariance checks),
``variation`` (prolongations, Noether currents, first variation),
``metric`` (metric area Lagrangians and their Lepage forms), and ``cli``;
``minimal``, the numeric minimal-graph workbench, uses numpy only.
"""

__version__ = "0.1.0"
