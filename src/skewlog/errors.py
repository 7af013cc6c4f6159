"""The exception type shared across the library."""

from __future__ import annotations


class DomainError(ValueError):
    """Argument outside a function's documented domain."""
