"""The engine contract and registry.

An engine builds *executors*: objects duck-typed like
:class:`repro.functional.Executor` — ``run(sink=None) -> MachineState``
plus ``state``/``retired``/``consumed_values`` — for one program.
Every run picks its engine through :func:`create_engine`; without an
explicit choice that is the process-wide default directive
(``"compiled"`` unless :func:`set_default_engine` says otherwise).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type, Union

from ..sim.registry import Registry, validate_options


class Engine:
    """One execution tier.

    Engines are cheap, reusable and stateless across runs except for
    per-call bookkeeping (:attr:`last_cache_hit`); a Session may build
    one per run or share one across a sweep.
    """

    #: Registry name (set by :func:`register_engine`).
    name: str = "?"
    #: True when the engine's most recent run was served from a warm
    #: artifact cache (e.g. compiled code already generated).
    last_cache_hit: bool = False

    def executor(
        self,
        program,
        *,
        seed: int = 0,
        pbs=None,
        record_consumed: bool = False,
    ):
        """An executor for ``program`` (duck-typed like
        :class:`repro.functional.Executor`)."""
        raise NotImplementedError


#: name -> Engine subclass (see :func:`register_engine`).
ENGINES = Registry("engine", catalog="registered engines")


def register_engine(name: str, *, replace: bool = False):
    """Class decorator registering an :class:`Engine` under ``name``.

    Duplicate names raise ``ValueError``; pass ``replace=True`` to
    deliberately override a built-in tier.
    """

    def decorator(cls: Type[Engine]) -> Type[Engine]:
        cls.name = name
        ENGINES.register(name, cls, replace=replace)
        return cls

    return decorator


def engine_names() -> List[str]:
    """Registered engine names, in registration order."""
    return list(ENGINES)


def get_engine(name: str) -> Type[Engine]:
    """The registered :class:`Engine` subclass for ``name``."""
    return ENGINES.get(name)


def list_engines() -> List[str]:
    """Uniform ``list_*`` alias for :func:`engine_names`."""
    return engine_names()


def create_engine(engine: Union[str, Engine, None] = None, **options) -> Engine:
    """Resolve an engine argument to an instance — the one place a run
    picks its execution tier.

    ``None`` takes the process-wide default directive (see
    :func:`set_default_engine`); a string is looked up in the registry;
    an :class:`Engine` instance passes through untouched.  Options the
    engine does not accept raise ``TypeError`` naming the valid ones.
    """
    if isinstance(engine, Engine):
        return engine
    if engine is None:
        engine, defaults = _DEFAULT
        options = {**defaults, **options}
    cls = ENGINES.get(engine)
    validate_options("engine", engine, cls, options)
    return cls(**options)


#: The built-in default directive: every run not naming a tier compiles.
_BUILTIN_DEFAULT: Tuple[str, Dict] = ("compiled", {})

#: Process-wide default engine directive, set by the CLI's ``run
#: --engine`` so experiment modules pick up the tier without every
#: artefact function growing an ``engine`` parameter.
_DEFAULT: Tuple[str, Dict] = _BUILTIN_DEFAULT


def set_default_engine(name: Optional[str], **options) -> None:
    """Set the process-wide default engine (``None`` restores the
    built-in ``"compiled"`` default).

    Runs without an explicit engine choice use the default.
    """
    global _DEFAULT
    if name is None:
        _DEFAULT = _BUILTIN_DEFAULT
    else:
        get_engine(name)  # fail fast on unknown names
        _DEFAULT = (name, dict(options))


def default_engine() -> Tuple[str, Dict]:
    """The process-wide ``(name, options)`` default."""
    return _DEFAULT
