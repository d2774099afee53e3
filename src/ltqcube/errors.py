"""Exception types shared across the package."""

from __future__ import annotations


class LtqError(ValueError):
    """Base class for all domain errors raised by this package."""


class DimensionError(LtqError):
    """Dimension out of range, or two objects with mismatched dimensions."""


class LabelFormatError(LtqError):
    """A node label string or value that does not encode a valid label."""


class AdjacencyError(LtqError):
    """Two nodes required to be adjacent are not."""


class OverlapError(LtqError):
    """Node sets required to be disjoint (or distinct) are not."""


class InvalidPairError(LtqError):
    """A pair of paths or cycles violating the Hamiltonian-pair invariants."""


class OracleScopeError(LtqError):
    """An exhaustive search was requested outside its guarded scope."""
