"""Error types shared across the package."""

from __future__ import annotations


class DegenerateGeometryError(ValueError):
    """A feed or UE placement that makes the propagation model meaningless,
    such as a feed in or behind the surface plane."""


class ModelInconsistencyError(RuntimeError):
    """A closed-form quantity outside its validity conditions; ``details``
    holds the offending intermediate values, so a report needs no re-run."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}
