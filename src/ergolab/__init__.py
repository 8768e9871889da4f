"""Exact-arithmetic laboratory for Cesaro averaging of positive operators.

The package builds two families of operators whose averaging behaviour is
delicate enough to need exact verification: operators on null sequences
presented by infinite weighted ladder graphs, and a block-diagonal family of
2x2 doubly stochastic matrices on bounded sequences.  Norms, orbits, Cesaro
averages and fixed-space certificates are all computed in arbitrary
precision rational arithmetic; every headline claim is re-derivable through
at least two independent routes.
"""

__version__ = "0.1.0"
