"""Base of the slotted value classes that cannot be namedtuples (README, "Value types")."""


class FrozenValue:
    """A subclass names its fields in __slots__ and sets them once, in
    __init__, through `_init`; assigning or deleting a field afterwards
    raises AttributeError.  Instances compare (only to their own class) and
    hash by the tuple of their fields, in __slots__ order."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which validates
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())
