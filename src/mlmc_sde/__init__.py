"""Multilevel Monte Carlo for SDEs with antithetic splitting-scheme couplings."""

__version__ = "0.1.0"
