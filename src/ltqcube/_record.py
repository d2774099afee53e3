"""The frozen base of the package's records: plain slotted classes, since
importing `dataclasses` loads `inspect`, `ast` and `dis` into a CLI process."""


class _Record:
    """A frozen record over the slots named in `_fields`, in constructor
    order. It equals only a record of its own class with an equal `_key()`,
    hashes as that key, pickles as its fields (`__getstate__`) and shows
    them as `Name(field=value, ...)`; setting or deleting an attribute
    raises AttributeError. Every record passed its constructor's checks:
    loading one (`pickle`, `copy.deepcopy`) runs `__init__` on its fields,
    and `copy.copy` returns the record itself, as for a tuple."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, values: tuple) -> None:  # the only write, from a constructor
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __getstate__(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)

    def __copy__(self) -> "_Record":
        return self

    _key = __getstate__  # every field; a record may leave some out of == and hash

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = zip(self._fields, self.__getstate__())
        shown = ", ".join(f"{name}={value!r}" for name, value in fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
