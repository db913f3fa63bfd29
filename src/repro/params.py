"""Parameter metadata shared by every registry.

Scenario families, workload kinds, tmem policies and cluster
coordinators are all "documented by construction": the tunable-parameter
tables shown by ``smartmem list --verbose``, consumed by the DSL
validator and rendered into ``docs/scenario-language.md`` are derived
from the registered callables themselves.  Types and defaults come from
:func:`inspect.signature` (so they cannot drift from the code), one-line
docs and value bounds come from explicit ``param_docs``/``bounds``
mappings supplied at registration time, and units are derived from the
parameter-name conventions used throughout the repo (``*_mb`` is
mebibytes, ``*_s`` is seconds, ...).  :func:`param_errors` checks a
call's keyword arguments against that metadata, :func:`parse_spec`
reads the ``name:key=value`` spec strings of every registry, and
:class:`SpecRegistry` is the one class registry of workload kinds,
policies and coordinators.
"""

from __future__ import annotations

import difflib
import functools
import importlib
import inspect
import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Type

__all__ = [
    "Bound",
    "ParameterInfo",
    "SpecRegistry",
    "check_params",
    "param_errors",
    "parse_spec",
    "scale_error",
    "signature_parameter_info",
    "suggest",
    "units_for_name",
]

#: Parameters every factory/constructor takes that are not user-tunable
#: knobs (``scale`` is CLI-level, ``units``/``rng`` are injected by the
#: scenario runner).
NON_TUNABLE = ("self", "scale", "units", "rng")

#: What a value of each checked parameter type must be.
_EXPECTED = {"int": "an integer", "float": "a finite number", "str": "a string"}

#: The ``self`` a checked constructor's signature starts with.
_SELF = inspect.Parameter("self", inspect.Parameter.POSITIONAL_ONLY)

_NUMBER = r"-?\d+(?:\.\d+)?"
_BOUND = re.compile(
    rf"(>=?)\s*({_NUMBER})|([\[(])({_NUMBER}),\s*({_NUMBER})([\])])"
)


def suggest(name: Any, candidates: Sequence[str]) -> str:
    """A ``; did you mean 'x'?`` suffix, or '' when nothing is close."""
    matches = difflib.get_close_matches(str(name), list(candidates), n=1, cutoff=0.5)
    return f"; did you mean {matches[0]!r}?" if matches else ""


class Bound(NamedTuple):
    """The interval a numeric parameter's values must lie in."""

    #: The declared form: ``">= 2"``, ``"> 0"``, ``"[1, 3]"`` or ``"(0, 1]"``.
    text: str
    low: float
    high: float = math.inf
    #: True for ``> low`` and ``(low, ...``: ``low`` itself is out of bounds.
    open_low: bool = False
    #: True for ``..., high)``: ``high`` itself is out of bounds.
    open_high: bool = False

    @classmethod
    def parse(cls, text: str) -> "Bound":
        """Parse ``>= N``, ``> N`` or an interval ``[LOW, HIGH]`` in which
        ``(`` or ``)`` makes that end open; an empty interval is malformed."""
        match = _BOUND.fullmatch(text)
        if match and match[1]:
            return cls(text, float(match[2]), open_low=match[1] == ">")
        if match:
            bound = cls(
                text, float(match[4]), float(match[5]), match[3] == "(", match[6] == ")"
            )
            if bound.low < bound.high or bound.error(bound.low) is None:
                return bound
        raise ValueError(
            f"malformed bound {text!r}: expected '>= N', '> N' or an interval "
            "such as '[1, 3]' or '(0, 1]'"
        )

    def error(self, value: float) -> Optional[str]:
        """Why *value* lies outside the bound, or ``None``."""
        above = value > self.low if self.open_low else value >= self.low
        below = value < self.high if self.open_high else value <= self.high
        if above and below:
            return None
        where = self.text if self.high == math.inf else f"in {self.text}"
        return f"expected a value {where}, got {value!r}"


@dataclass(frozen=True)
class ParameterInfo:
    """Metadata for one tunable parameter of a registered callable."""

    name: str
    #: Rendered type name ("int", "float", "str", "Optional[int]", ...).
    type: str
    #: The signature default (``None`` when the parameter is required).
    default: Any
    #: One-line human description from the registration's ``param_docs``.
    doc: str = ""
    #: Unit string derived from naming conventions ("MiB", "s", ...).
    units: str = ""
    #: The declared value bound of a numeric parameter, if any.
    bound: Optional[Bound] = None

    @property
    def checked_type(self) -> str:
        """The type values are checked as: an ``Optional[int]`` parameter
        is an ``int`` one that also takes ``None``."""
        match = re.fullmatch(r"Optional\[(\w+)\]", self.type)
        return match[1] if match else self.type

    def default_repr(self) -> str:
        """The default formatted for tables (``-`` when required)."""
        if self.default is inspect.Parameter.empty:
            return "-"
        return repr(self.default)

    def type_error(self, value: Any) -> Optional[str]:
        """Why *value* does not fit this parameter's type, or ``None``.

        Only ``int``, ``float`` and ``str`` parameters (and their
        ``Optional`` forms) are checked.  A bool is never a number; an
        int is a valid float.
        """
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        checked = self.checked_type
        if checked == "str":
            fits = isinstance(value, str)
        elif checked == "int":
            fits = number and isinstance(value, int)
        elif checked == "float":
            fits = number and (isinstance(value, int) or math.isfinite(value))
        else:
            return None
        return None if fits else f"expected {_EXPECTED[checked]}, got {value!r}"

    def value_error(self, value: Any) -> Optional[str]:
        """Why *value* does not fit this parameter's type or bound, or
        ``None``; an ``Optional`` parameter takes ``None`` unchecked."""
        if value is None and self.checked_type != self.type:
            return None
        return self.type_error(value) or (self.bound and self.bound.error(value))


def param_errors(
    infos: Sequence[ParameterInfo], params: Mapping[str, Any], owner: str
) -> List[Tuple[str, str]]:
    """``(key, message)`` for every problem with *params* for *infos*.

    Unknown keys, values of the wrong type or out of bounds, and missing
    required parameters, for which *key* is ``""``.  *owner* names the
    family, workload, policy or coordinator in the unknown and missing
    messages.
    """
    known = {info.name: info for info in infos}
    problems = []
    for key, value in params.items():
        if key not in known:
            problems.append((
                key,
                f"{owner} has no parameter {key!r}"
                f"{suggest(key, sorted(known))}; valid keys: {sorted(known)}",
            ))
        else:
            message = known[key].value_error(value)
            if message:
                problems.append((key, message))
    for info in infos:
        if info.default is inspect.Parameter.empty and info.name not in params:
            problems.append((
                "",
                f"{owner} requires parameter {info.name!r}"
                + (f" ({info.doc})" if info.doc else ""),
            ))
    return problems


def check_params(
    infos: Sequence[ParameterInfo],
    params: Mapping[str, Any],
    owner: str,
    error: Type[Exception],
) -> None:
    """Raise *error* for the first problem :func:`param_errors` finds.

    A bad value's message names its parameter (``<owner> parameter 'n':
    ...``); the unknown and missing messages name *owner* already.
    """
    problems = param_errors(infos, params, owner)
    if problems:
        key, message = problems[0]
        if any(info.name == key for info in infos):
            message = f"{owner} parameter {key!r}: {message}"
        raise error(message)


def parse_spec(
    spec: str, error: Type[Exception], noun: str
) -> Tuple[str, Dict[str, float]]:
    """Split ``"many-vms:n=8,ram_mb=512"`` into a name and keyword arguments.

    The one ``name:key=value`` parser of scenario families, policies and
    coordinators.  Keys are lower-cased; values must be numeric, and
    integral values are returned as ``int`` so they can serve as counts.
    A malformed argument raises *error*, calling it a *noun* argument.
    """
    name, _, args = spec.partition(":")
    kwargs: Dict[str, float] = {}
    if args:
        for part in args.split(","):
            key, _, value = part.partition("=")
            key = key.strip().lower()
            if not key or not value:
                raise error(f"malformed {noun} argument {part!r} in {spec!r}")
            try:
                number = float(value)
            except ValueError:
                raise error(
                    f"{noun} argument {key!r} must be numeric, got {value!r}"
                ) from None
            kwargs[key] = int(number) if number.is_integer() else number
    return name.strip(), kwargs


def scale_error(scale: float) -> Optional[str]:
    """Why *scale* is not a size scale factor, or ``None``: the one scale
    rule of the registry, the DSL compiler and the sweep specs."""
    if math.isfinite(scale) and scale > 0:
        return None
    return f"scale must be finite and > 0, got {scale}"


def units_for_name(name: str) -> str:
    """Derive a unit string from the repo's parameter-name conventions."""
    if name.endswith("_bytes_s"):
        return "bytes/s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("_s", "_at")) or name in ("at",):
        return "s"
    if name.endswith("_pages"):
        return "pages"
    if name.endswith(("_factor", "_weight", "_alpha")) or name == "scale":
        return "ratio"
    return ""


def _type_name(param: inspect.Parameter) -> str:
    annotation = param.annotation
    if annotation is not inspect.Parameter.empty:
        # ``from __future__ import annotations`` makes these strings.
        if isinstance(annotation, str):
            return annotation
        return getattr(annotation, "__name__", str(annotation))
    if param.default is not inspect.Parameter.empty and param.default is not None:
        return type(param.default).__name__
    return "any"


def signature_parameter_info(
    func: Callable[..., Any],
    *,
    docs: Mapping[str, str] = {},
    bounds: Mapping[str, str] = {},
) -> Tuple[ParameterInfo, ...]:
    """Extract :class:`ParameterInfo` for every tunable keyword of *func*.

    *func* is a factory or a class (whose constructor is read).
    ``self``/``scale``/``units``/``rng`` and ``*args``/``**kwargs``
    catch-alls are skipped; everything else in the signature is a
    documented knob.  Types and defaults are read from the signature so
    the generated documentation cannot drift from the code.  A malformed
    bound, or one on a parameter that is not a tunable int or float,
    raises :class:`ValueError`.
    """
    infos = []
    for param in inspect.signature(func).parameters.values():
        if param.name in NON_TUNABLE:
            continue
        if param.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        infos.append(
            ParameterInfo(
                name=param.name,
                type=_type_name(param),
                default=param.default,
                doc=docs.get(param.name, ""),
                units=units_for_name(param.name),
                bound=Bound.parse(bounds[param.name]) if param.name in bounds else None,
            )
        )
    numeric = {info.name for info in infos if info.checked_type in ("int", "float")}
    for name in sorted(set(bounds) - numeric):
        raise ValueError(f"bound on {name!r}, which is not an int or float parameter")
    return tuple(infos)


def _checked_init(cls: type, info: Tuple[ParameterInfo, ...], owner: str, error: type) -> None:
    """Put *cls*'s constructor behind the check of its tunable arguments,
    positional ones included."""
    init, signature = cls.__init__, inspect.signature(cls)
    parameters = list(signature.parameters.values())
    # Parameter kinds are ordered: the positional ones come before *args.
    positional = [p.name for p in parameters if p.kind < p.VAR_POSITIONAL]

    @functools.wraps(init)
    def checked(self: Any, *args: Any, **kwargs: Any) -> None:
        params = dict(zip(positional, args), **kwargs)
        tunable = {key: value for key, value in params.items() if key not in NON_TUNABLE}
        check_params(info, tunable, owner, error)
        init(self, *args, **kwargs)

    # What ``inspect.signature`` reads, also when *init* is ``object.__init__``.
    checked.__signature__ = signature.replace(parameters=[_SELF, *parameters])  # type: ignore
    cls.__init__ = checked  # type: ignore[misc]


class SpecRegistry:
    """Classes registered by name whose constructors declare their parameters.

    The one registry of workload kinds, tmem policies and cluster
    coordinators.  :meth:`register` reads a class's constructor the way
    :func:`~repro.scenarios.registry.register_scenario` reads a family's
    factory (types and defaults from the signature, docs and bounds
    from the registration) and wraps ``__init__`` in the check of its
    arguments, so direct construction, spec strings, DSL documents and
    the CLI share one validator and the classes check no parameter of
    their own.  A constructor that takes ``**kwargs`` is documented but
    not checked.

    Bad arguments raise *error*; unknown names and bad registrations
    raise *lookup_error*, whose messages call an entry a *lookup_noun*.

    *built_ins* maps each built-in name to the module that registers it
    when imported.  A built-in registers on first use: a lookup, or any
    read that names it, imports its module alone, while a listing
    (:meth:`names`, :attr:`classes`) and a registration from any other
    module import every built-in first.  Listings stay complete, and a
    registration replaces a built-in exactly as it would if every
    built-in had loaded with the package.
    """

    def __init__(
        self,
        base: type,
        noun: str,
        error: type,
        lookup_error: type,
        *,
        lookup_noun: str = "",
        built_ins: Mapping[str, str] = {},
    ) -> None:
        self.base = base
        self.noun = noun
        self.error = error
        self.lookup_error = lookup_error
        self.lookup_noun = lookup_noun or noun
        self._built_ins = dict(built_ins)
        self._classes: Dict[str, type] = {}
        self._info: Dict[str, Tuple[ParameterInfo, ...]] = {}
        self._checked: set = set()

    def _import_built_ins(self, name: Optional[str] = None) -> None:
        """Import the module of built-in *name* unless it is registered,
        or, without a *name*, the module of every built-in."""
        if name is None:
            for module in dict.fromkeys(self._built_ins.values()):
                importlib.import_module(module)
        elif name not in self._classes and name in self._built_ins:
            importlib.import_module(self._built_ins[name])

    @property
    def classes(self) -> Dict[str, type]:
        """Name -> class of every entry, built-ins included.  The dict is
        mutated in place, so every holder sees later registrations."""
        self._import_built_ins()
        return self._classes

    def register(
        self, name: str, *, param_docs: Mapping[str, str] = {}, bounds: Mapping[str, str] = {}
    ) -> Callable[[type], type]:
        """Class decorator registering a class under *name*.

        *param_docs* maps constructor parameters to one-line
        descriptions and *bounds* maps them to the values they accept,
        as for :func:`~repro.scenarios.registry.register_scenario`.  The
        class's ``name`` becomes *name*, which a spec string must be able
        to spell.
        """
        if not name or set(name) & set(":,="):
            raise self.lookup_error(f"{self.lookup_noun} {name!r} is empty or has ':', ',' or '='")

        def decorator(cls: type) -> type:
            if not (isinstance(cls, type) and issubclass(cls, self.base)):
                raise self.lookup_error(
                    f"{cls!r} is not a {self.base.__name__} subclass"
                )
            if cls.__module__ not in self._built_ins.values():
                self._import_built_ins()
            owner = f"{self.noun} {name!r}"
            try:
                info = signature_parameter_info(cls, docs=param_docs, bounds=bounds)
            except ValueError as exc:
                raise self.lookup_error(f"{owner}: {exc}") from None
            self._checked.discard(name)
            if all(p.kind is not p.VAR_KEYWORD for p in inspect.signature(cls).parameters.values()):
                _checked_init(cls, info, owner, self.error)
                self._checked.add(name)
            cls.name = name  # type: ignore[attr-defined]
            self._classes[name] = cls
            self._info[name] = info
            return cls

        return decorator

    def names(self) -> Tuple[str, ...]:
        """Every registered name, sorted."""
        return tuple(sorted(self.classes))

    def get(self, name: str) -> Optional[type]:
        """The class registered under *name*, or ``None``."""
        self._import_built_ins(name)
        return self._classes.get(name)

    def lookup(self, name: str) -> type:
        """The class registered under *name*."""
        cls = self.get(name)
        if cls is None:
            raise self.lookup_error(
                f"unknown {self.lookup_noun} {name!r}; "
                f"available: {', '.join(self.names())}"
            )
        return cls

    def summary(self, name: str) -> str:
        """The first line of the docstring of the class under *name*."""
        doc = (self.lookup(name).__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""

    def parameter_info(self, name: str) -> Tuple[ParameterInfo, ...]:
        """Metadata of every tunable constructor parameter of *name*."""
        self._import_built_ins(name)
        return self._info.get(name, ())

    def errors(self, name: str, params: Mapping[str, Any]) -> List[Tuple[str, str]]:
        """:func:`param_errors` of *params* for the class under *name*;
        none for a constructor that takes ``**kwargs``."""
        self._import_built_ins(name)
        if name not in self._checked:
            return []
        return param_errors(self._info[name], params, f"{self.noun} {name!r}")

    def create(self, spec: str) -> Any:
        """Build the class that spec string ``name:key=value,...`` names."""
        name, params = parse_spec(spec, self.error, self.noun)
        return self.lookup(name)(**params)
