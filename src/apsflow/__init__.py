"""Spectral flow and boundary-value index computations for Hermitian families.

The package computes the spectral flow of time-dependent Hermitian matrix
families, the indices of the associated transport (``d/dt - iA``) and
boundary-value (``d/dt + A``) operators under spectral boundary conditions,
and cross-checks the flow-equals-index identities along several independent
computation paths, including the eigenline-swapping direct sums whose
kernels grow without bound while every index stays zero.
"""

__version__ = "0.1.0"
