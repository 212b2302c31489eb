"""Value types and typing contexts.

A type is either ``Bounded(n)``, the integers ``0 .. n-1``, or
``RealArray(shape)``, real arrays of a fixed shape (the empty shape is a
scalar).  A ``TypeContext`` is an ordered sequence of distinct
``(name, type)`` pairs; two contexts are equal when they agree as
name-to-type mappings regardless of order, while the stored order is the
canonical one (first appearance, left to right) and is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple, Union

from .errors import NameAbsent, TypeConflict


@dataclass(frozen=True)
class Bounded:
    """Integers in ``range(size)``; ``size`` must be at least 1."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or isinstance(self.size, bool):
            raise TypeConflict(f"bound must be an int, got {self.size!r}")
        if self.size < 1:
            raise TypeConflict(f"bound must be >= 1, got {self.size}")

    @property
    def num_elements(self) -> int:
        return self.size

    def pretty(self) -> str:
        return f"Z{self.size}"


@dataclass(frozen=True)
class RealArray:
    """Real arrays of a fixed shape; ``RealArray(())`` is a real scalar."""

    shape: Tuple[int, ...] = ()

    def __post_init__(self):
        shape = tuple(int(d) for d in self.shape)
        object.__setattr__(self, "shape", shape)
        if any(d < 1 for d in shape):
            raise TypeConflict(f"array dims must be >= 1, got {shape}")

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape)

    def pretty(self) -> str:
        if not self.shape:
            return "R"
        return "R" + "x".join(str(d) for d in self.shape)


FunsorType = Union[Bounded, RealArray]

Real = RealArray(())


def _conflict(name: str, prev: FunsorType, tp: FunsorType) -> TypeConflict:
    return TypeConflict(f"name {name!r} used at both {prev.pretty()} and {tp.pretty()}")


class TypeContext:
    """An ordered mapping from names to types.

    Construction collapses duplicate entries with identical types and
    rejects conflicting ones.  Equality and hashing ignore order; the
    stored order is preserved by all operations (union appends the right
    operand's new names after the left's).
    """

    __slots__ = ("_entries", "_index", "_hash")

    def __init__(self, entries=()):
        index: dict = {}
        ordered = []
        for name, tp in entries:
            if not isinstance(name, str):
                raise TypeConflict(f"context names must be strings, got {name!r}")
            if not isinstance(tp, (Bounded, RealArray)):
                raise TypeConflict(f"not a type: {tp!r}")
            prev = index.get(name)
            if prev is None:
                index[name] = tp
                ordered.append((name, tp))
            elif prev != tp:
                raise _conflict(name, prev, tp)
        self._entries: Tuple[Tuple[str, FunsorType], ...] = tuple(ordered)
        self._index = index
        self._hash = None

    @property
    def entries(self) -> Tuple[Tuple[str, FunsorType], ...]:
        return self._entries

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._entries)

    def typeof(self, name: str) -> FunsorType:
        try:
            return self._index[name]
        except KeyError:
            raise NameAbsent(f"name {name!r} not in context {self.pretty()}") from None

    def get(self, name: str, default=None):
        return self._index.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[Tuple[str, FunsorType]]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TypeContext):
            return NotImplemented
        return self._index == other._index

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._index.items()))
        return self._hash

    def union(self, other: "TypeContext") -> "TypeContext":
        """Merge two contexts; conflicting types for a shared name raise.

        When ``other`` adds no names the result is ``self`` itself.
        """
        if not other._entries:
            return self
        if not self._entries:
            return other
        index = self._index
        for name, tp in other._entries:
            prev = index.get(name)
            if prev is None:
                return TypeContext(self._entries + other._entries)
            if prev != tp:
                raise _conflict(name, prev, tp)
        return self

    @staticmethod
    def concat(over: str, parts) -> Tuple["TypeContext", Tuple[int, ...]]:
        """The context of ``parts`` concatenated along ``over``, and their counts.

        A part lacking ``over`` counts one position; ``over`` is re-bound
        to the total, and other names merge as in ``union``.
        """
        counts = []
        for ctx in parts:
            tp = ctx.get(over, Bounded(1))
            if not isinstance(tp, Bounded):
                raise TypeConflict(f"cat variable {over!r} must be bounded")
            counts.append(tp.size)
        total = Bounded(sum(counts))
        entries = [(n, total if n == over else t) for ctx in parts for n, t in ctx]
        return TypeContext(entries + [(over, total)]), tuple(counts)

    def remove(self, name: str) -> "TypeContext":
        """Drop ``name``; absent names raise ``NameAbsent``."""
        if name not in self._index:
            raise NameAbsent(f"cannot remove absent name {name!r} from {self.pretty()}")
        return TypeContext(e for e in self._entries if e[0] != name)

    @property
    def num_elements(self) -> int:
        """Product of per-entry element counts (bounds and flattened dims)."""
        return math.prod(tp.num_elements for _, tp in self._entries)

    def real_entries(self) -> Tuple[Tuple[str, RealArray], ...]:
        return tuple(e for e in self._entries if isinstance(e[1], RealArray))

    def pretty(self) -> str:
        inner = ", ".join(f"{n}:{t.pretty()}" for n, t in self._entries)
        return f"({inner})"

    def __repr__(self) -> str:
        return f"TypeContext{self.pretty()}"

