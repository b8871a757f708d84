"""Base class of the immutable structures that cache derived data."""

from __future__ import annotations


class Frozen:
    """Attributes are set once, by ``__init__`` through ``_set``; any later
    assignment or deletion raises AttributeError.  ``functools.cached_property``
    writes the instance ``__dict__`` directly, so cached fields still fill
    in.  Equality and hashing are by identity, and instances take weak
    references.
    """

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")
