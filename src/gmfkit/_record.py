"""Frozen value records: what gmfkit used of `@dataclass(frozen=True)`.

`@record` reads a class's fields, in order, from its own annotations, and a
class value as that field's default.  It installs `__init__`, which sets each
field and then calls `__post_init__` if the class has one; `__eq__` between
instances of the same class and `__hash__` over the field tuple; the repr
`Name(field=value, ...)`; and a `__setattr__` and `__delattr__` that raise
AttributeError.  A validator stores a normalised field with
`object.__setattr__`, and `functools.cached_property` writes to `__dict__`
directly, so both work on a record.  The methods are compiled once per class
from its field list, as `collections.namedtuple` compiles its `__new__`, so a
record is as cheap to build as the dataclass it replaces.

Records are not built with the standard `dataclass` decorator because every
gmfkit command starts in a fresh interpreter: the decorator's module loads
`inspect`, `ast`, `dis` and `tokenize`, and decorating each class took about
0.8 ms more, together about 25 ms, a third of `import gmfkit.cli`.
"""


def _read_only(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a {type(self).__name__}")


def record(cls):
    names = list(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = ", ".join(f"{n}=_dflt_{n}" if n in defaults else n for n in names)
    sets = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        sets.append("self.__post_init__()")
    mine = "".join(f"self.{n}, " for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = (
        f"def __init__(self, {params}):\n" + "".join(f"    {line}\n" for line in sets)
        + "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({mine.replace('self.', 'other.')})\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({mine}))\n"
        f"def __repr__(self):\n    return self.__class__.__qualname__ + f'({shown})'\n"
    )
    namespace = {"__name__": cls.__module__, "_set": object.__setattr__}
    namespace.update({f"_dflt_{n}": v for n, v in defaults.items()})
    exec(source, namespace)
    for method in ("__init__", "__eq__", "__hash__", "__repr__"):
        namespace[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, namespace[method])
    cls.__setattr__ = cls.__delattr__ = _read_only
    return cls
