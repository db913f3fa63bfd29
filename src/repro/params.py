"""Parameter metadata shared by the scenario and workload registries.

Scenario families and workload kinds are both "documented by
construction": the tunable-parameter tables shown by ``smartmem list
--verbose``, consumed by the DSL validator and rendered into
``docs/scenario-language.md`` are derived from the registered callables
themselves.  Types and defaults come from :func:`inspect.signature` (so
they cannot drift from the code), one-line docs and value bounds come
from explicit ``param_docs``/``bounds`` mappings supplied at
registration time, and units are derived from the parameter-name
conventions used throughout the repo (``*_mb`` is mebibytes, ``*_s`` is
seconds, ...).  :func:`param_errors` checks a call's keyword arguments
against that metadata.
"""

from __future__ import annotations

import difflib
import inspect
import math
import re
from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "Bound",
    "ParameterInfo",
    "param_errors",
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

_NUMBER = r"-?\d+(?:\.\d+)?"
_BOUND = re.compile(rf"(>=?)\s*({_NUMBER})|({_NUMBER})\.\.({_NUMBER})")


def suggest(name: Any, candidates: Sequence[str]) -> str:
    """A ``; did you mean 'x'?`` suffix, or '' when nothing is close."""
    matches = difflib.get_close_matches(str(name), list(candidates), n=1, cutoff=0.5)
    return f"; did you mean {matches[0]!r}?" if matches else ""


class Bound(NamedTuple):
    """The interval a numeric parameter's values must lie in."""

    #: The declared form: ``">= 2"``, ``"> 0"`` or ``"1..3"``.
    text: str
    low: float
    high: float = math.inf
    #: True for ``> low``: ``low`` itself is out of bounds.
    open_low: bool = False

    @classmethod
    def parse(cls, text: str) -> "Bound":
        """Parse ``>= N``, ``> N`` or ``LOW..HIGH`` (both ends included)."""
        match = _BOUND.fullmatch(text)
        if match is None or (match[3] and float(match[3]) > float(match[4])):
            raise ValueError(
                f"malformed bound {text!r}: expected '>= N', '> N' or 'LOW..HIGH'"
            )
        if match[1]:
            return cls(text, float(match[2]), open_low=match[1] == ">")
        return cls(text, float(match[3]), float(match[4]))

    def error(self, value: float) -> Optional[str]:
        """Why *value* lies outside the bound, or ``None``."""
        above = value > self.low if self.open_low else value >= self.low
        if above and value <= self.high:
            return None
        where = self.text if self.high == math.inf else f"in {self.text}"
        return f"expected a value {where}, got {value!r}"


@dataclass(frozen=True)
class ParameterInfo:
    """Metadata for one tunable parameter of a family or workload."""

    name: str
    #: Rendered type name ("int", "float", "str", ...).
    type: str
    #: The signature default (``None`` when the parameter is required).
    default: Any
    #: One-line human description from the registration's ``param_docs``.
    doc: str = ""
    #: Unit string derived from naming conventions ("MiB", "s", ...).
    units: str = ""
    #: The declared value bound of a numeric parameter, if any.
    bound: Optional[Bound] = None

    def default_repr(self) -> str:
        """The default formatted for tables (``-`` when required)."""
        if self.default is inspect.Parameter.empty:
            return "-"
        return repr(self.default)

    def type_error(self, value: Any) -> Optional[str]:
        """Why *value* does not fit this parameter's type, or ``None``.

        Only ``int``, ``float`` and ``str`` parameters are checked.  A
        bool is never a number; an int is a valid float.
        """
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if self.type == "str":
            fits = isinstance(value, str)
        elif self.type == "int":
            fits = number and isinstance(value, int)
        elif self.type == "float":
            fits = number and (isinstance(value, int) or math.isfinite(value))
        else:
            return None
        return None if fits else f"expected {_EXPECTED[self.type]}, got {value!r}"

    def value_error(self, value: Any) -> Optional[str]:
        """Why *value* does not fit this parameter's type or bound, or ``None``."""
        return self.type_error(value) or (self.bound and self.bound.error(value))


def param_errors(
    infos: Sequence[ParameterInfo], params: Mapping[str, Any], owner: str
) -> List[Tuple[str, str]]:
    """``(key, message)`` for every problem with *params* for *infos*.

    Unknown keys, values of the wrong type or out of bounds, and missing
    required parameters, for which *key* is ``""``.  *owner* names the
    family or workload in the unknown and missing messages.
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
    numeric = {info.name for info in infos if info.type in ("int", "float")}
    for name in sorted(set(bounds) - numeric):
        raise ValueError(f"bound on {name!r}, which is not an int or float parameter")
    return tuple(infos)
