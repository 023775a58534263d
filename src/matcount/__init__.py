"""Exact counting of 2x2 integer matrices with bounded entries and fixed
determinant, together with the supporting machinery: a totient sieve,
restricted divisor tables, modular-hyperbola point counts,
sign-class/region decompositions, summation identities, and asymptotic
main-term validation sweeps."""

import importlib.util
import sys

__version__ = "0.1.0"


def lazy_import(name: str):
    """The module name, executed at its first attribute access rather
    than now; an already imported module is returned as it is.  The
    modules that use numpy bind it this way, so a command that builds no
    array (count at delta = 0, tau --k 1 or 2, fit, a usage error) never
    imports it.  cli binds the library modules this way too, so a
    command runs only the modules that it calls, and a usage error runs
    none of them.  The stdlib modules that only some commands use (json,
    pickle, signal, fractions) are bound this way as well."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


def checked(record):
    """A ``__slots__ = ()`` subclass of the NamedTuple record, under its
    name, whose ``__new__`` runs ``record._check`` on every way to build
    one: arguments, ``_make`` and so ``_replace``, and unpickling.  A
    plain NamedTuple's ``_make`` and ``_replace`` skip ``__new__``."""

    def __new__(cls, *args, **kwargs):
        self = record.__new__(cls, *args, **kwargs)
        self._check()
        return self

    def _make(cls, iterable):
        return cls(*iterable)

    names = {k: getattr(record, k) for k in ("__doc__", "__module__", "__qualname__")}
    return type(record.__name__, (record,),
                dict(names, __slots__=(), __new__=__new__, _make=classmethod(_make)))
