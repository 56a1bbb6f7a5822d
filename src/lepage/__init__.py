"""Lepage equivalents of first-order Lagrangians on jet and Grassmann charts.

Subpackages build on each other in this order: ``expr`` (exact scalar
expressions), ``charts`` (jet/adapted charts and total derivatives),
``forms`` (exterior algebra), ``equivalents`` (Lepage constructors and
Euler-Lagrange machinery), ``homogeneity`` (Zermelo and equivariance checks),
``variation`` (prolongations, Noether currents, first variation),
``metric`` (metric area Lagrangians and their Lepage forms), and ``cli``;
``minimal``, the numeric minimal-graph workbench, uses numpy only.
"""

__version__ = "0.1.0"
