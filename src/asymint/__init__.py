"""Order-by-order asymptotic integrability analysis of a combined discrete
NLS lattice family (s=0: standard discretisation, s=1: integrable one).

The package derives multiscale reductions of the lattice exactly, checks
compatibility of the resulting hierarchy flows, and validates predictions
against direct lattice integration.
"""

__version__ = "0.1.0"
