"""Point-mass factors.

A ``DeltaAtom`` names a variable and stores the point it is pinned to as
an index-free or batched tensor.  Its log density is zero at the point by
convention, so multiplying by a Delta and substituting the point is value
preserving, and summing a Delta over its own variable yields log 1 = 0.
"""
from __future__ import annotations

from .domains import TypeContext
from .errors import ContextMismatch
from .tensor import TensorAtom


class DeltaAtom:
    """A point mass ``delta(name = point)`` with a ground or batched point."""

    __slots__ = ("name", "point", "_hash")

    def __init__(self, name: str, point: TensorAtom):
        if not isinstance(name, str) or not name:
            raise ContextMismatch(f"delta needs a variable name, got {name!r}")
        if not isinstance(point, TensorAtom):
            raise ContextMismatch("delta point must be a TensorAtom")
        if name in point.context:
            raise ContextMismatch(
                f"delta variable {name!r} may not appear in its own point's context"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("DeltaAtom is immutable")

    def check(self) -> "DeltaAtom":
        """Re-validate the point's data shape against its declared types."""
        self.point.check()
        return self

    @property
    def context(self) -> TypeContext:
        """Free variables: the point's context plus the named variable."""
        return point_context(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeltaAtom):
            return NotImplemented
        return self.name == other.name and self.point == other.point

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.name, self.point)))
        return self._hash

    def __repr__(self) -> str:
        return f"DeltaAtom({self.name!r})"


def point_context(delta: DeltaAtom) -> TypeContext:
    return delta.point.context.union(
        TypeContext([(delta.name, delta.point.output)])
    )

