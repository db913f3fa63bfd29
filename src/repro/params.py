"""Parameter metadata shared by the scenario and workload registries.

Scenario families and workload kinds are both "documented by
construction": the tunable-parameter tables shown by ``smartmem list
--verbose``, consumed by the DSL validator and rendered into
``docs/scenario-language.md`` are derived from the registered callables
themselves.  Types and defaults come from :func:`inspect.signature` (so
they cannot drift from the code), one-line docs come from an explicit
``param_docs`` mapping supplied at registration time, and units are
derived from the parameter-name conventions used throughout the repo
(``*_mb`` is mebibytes, ``*_s`` is seconds, ...).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Tuple

__all__ = ["ParameterInfo", "signature_parameter_info", "units_for_name"]

#: Parameters every factory/constructor takes that are not user-tunable
#: knobs (``scale`` is CLI-level, ``units``/``rng`` are injected by the
#: scenario runner).
NON_TUNABLE = ("self", "scale", "units", "rng")

#: What a value of each checked parameter type must be.
_EXPECTED = {"int": "an integer", "float": "a finite number", "str": "a string"}


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
) -> Tuple[ParameterInfo, ...]:
    """Extract :class:`ParameterInfo` for every tunable keyword of *func*.

    ``self``/``scale``/``units``/``rng`` and ``*args``/``**kwargs``
    catch-alls are skipped; everything else in the signature is a
    documented knob.  Types and defaults are read from the signature so
    the generated documentation cannot drift from the code.
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
            )
        )
    return tuple(infos)
