"""Registry of available transducers.

The architecture "is not tied to a specific or fixed set of transducers";
components can be added at any time, either implemented natively or by
wrapping external systems. The registry is the extension point: the
orchestrator works over whatever is registered.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.errors import RegistryError
from repro.core.transducer import Transducer

__all__ = ["TransducerRegistry"]


class TransducerRegistry:
    """A named collection of transducer instances."""

    def __init__(self, transducers: Iterable[Transducer] = ()):
        self._transducers: dict[str, Transducer] = {}
        for transducer in transducers:
            self.register(transducer)

    def register(self, transducer: Transducer, *, replace: bool = False) -> None:
        """Add a transducer; names must be unique unless ``replace``."""
        if transducer.name in self._transducers and not replace:
            raise RegistryError(f"a transducer named {transducer.name!r} is already registered")
        self._transducers[transducer.name] = transducer

    def deregister(self, name: str) -> Transducer:
        """Remove and return a transducer."""
        try:
            return self._transducers.pop(name)
        except KeyError:
            raise RegistryError(f"no transducer named {name!r} is registered") from None

    def get(self, name: str) -> Transducer:
        """Look up a transducer by name."""
        try:
            return self._transducers[name]
        except KeyError:
            raise RegistryError(f"no transducer named {name!r} is registered") from None

    def __contains__(self, name: object) -> bool:
        return name in self._transducers

    def __len__(self) -> int:
        return len(self._transducers)

    def __iter__(self) -> Iterator[Transducer]:
        return iter(self.all())

    def names(self) -> list[str]:
        """Sorted names of registered transducers."""
        return sorted(self._transducers)

    def all(self) -> list[Transducer]:
        """All transducers, ordered by name for determinism."""
        return [self._transducers[name] for name in self.names()]

    def by_activity(self, activity: str) -> list[Transducer]:
        """All transducers belonging to one activity."""
        return [t for t in self.all() if t.activity == activity]

    def reset_all(self) -> None:
        """Forget execution history of every transducer."""
        for transducer in self._transducers.values():
            transducer.reset()

    def describe(self) -> list[dict]:
        """Structured description of every registered transducer.

        This is the data behind the reproduction of Table 1 (transducer
        input dependencies).
        """
        return [t.describe() for t in self.all()]

    def __repr__(self) -> str:
        return f"TransducerRegistry({self.names()!r})"
