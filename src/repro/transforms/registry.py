"""The pass registry: canonical names + typed options for every pass.

Every concrete :class:`~repro.ir.pass_manager.ModulePass` defined in
the ``repro`` package that declares a canonical kebab-case ``name`` is
auto-registered here the moment its class is defined (a subclass hook
on ``ModulePass``); importing this module pulls in every pass module
under :mod:`repro.transforms`, so ``PASS_REGISTRY`` is always complete
after ``import repro``.  Passes defined outside the package (user
extensions, tests) register explicitly with the :func:`register_pass`
decorator, keeping the global registry deterministic.

The registry is what turns a parsed textual pipeline spec
(:mod:`repro.ir.pipeline_spec`) into configured pass instances:
each registered pass exposes its constructor parameters as typed,
dataclass-style :class:`PassOption`\\ s, and :meth:`PassRegistry.build`
coerces and validates spec options against them with precise error
messages (unknown pass, unknown option, wrong option type).
"""

from __future__ import annotations

import difflib
import inspect
import re
from dataclasses import dataclass

from ..ir import pass_manager
from ..ir.pass_manager import ModulePass
from ..ir.pipeline_spec import OptionValue, PassSpec, PipelineSpecError

#: Canonical pass names: lowercase kebab-case.
_KEBAB_RE = re.compile(r"[a-z][a-z0-9]*(-[a-z0-9]+)*\Z")

#: Sentinel for options with no default (must be given in the spec).
REQUIRED = inspect.Parameter.empty


@dataclass(frozen=True)
class PassOption:
    """One typed constructor option of a registered pass."""

    #: Spec-level kebab-case key (``use-frep``).
    name: str
    #: Python constructor parameter name (``use_frep``).
    py_name: str
    #: Value type the option coerces to.
    type: type
    #: Default value, or :data:`REQUIRED`.
    default: object

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def describe(self) -> str:
        """``factor: int = None`` — for docs and error messages."""
        text = f"{self.name}: {self.type.__name__}"
        if not self.required:
            text += f" = {self.default!r}"
        return text


@dataclass(frozen=True)
class RegisteredPass:
    """Registry entry: a pass class plus its introspected options."""

    name: str
    cls: type[ModulePass]
    options: tuple[PassOption, ...]

    @property
    def summary(self) -> str:
        """First line of the pass class docstring."""
        for line in (self.cls.__doc__ or "").splitlines():
            line = line.strip()
            if line:
                return line
        return "(undocumented)"

    def option(self, name: str) -> PassOption | None:
        for option in self.options:
            if option.name == name:
                return option
        return None


def _option_type(parameter: inspect.Parameter) -> type:
    """Infer an option's scalar type from annotation, then default."""
    annotation = parameter.annotation
    if isinstance(annotation, str):
        # Postponed annotations: match on the source text. ``bool``
        # before ``int`` so ``bool | int`` unions stay boolean.
        for type_ in (bool, int, float, str):
            if type_.__name__ in annotation:
                return type_
    elif annotation in (bool, int, float, str):
        return annotation
    default = parameter.default
    if default is not REQUIRED and default is not None:
        for type_ in (bool, int, float, str):
            if isinstance(default, type_):
                return type_
    return str


def _introspect_options(cls: type[ModulePass]) -> tuple[PassOption, ...]:
    options = []
    signature = inspect.signature(cls.__init__)
    for parameter in list(signature.parameters.values())[1:]:
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        options.append(
            PassOption(
                name=parameter.name.replace("_", "-"),
                py_name=parameter.name,
                type=_option_type(parameter),
                default=parameter.default,
            )
        )
    return tuple(options)


def _coerce(
    pass_name: str, option: PassOption, value: OptionValue
) -> object:
    """Check/convert a parsed spec value to the option's declared type."""

    def fail(expected: str) -> PipelineSpecError:
        return PipelineSpecError(
            f"option '{option.name}' of pass '{pass_name}' expects "
            f"{expected}, got {value!r}"
        )

    if option.type is bool:
        if isinstance(value, bool):
            return value
        raise fail("a bool (true/false)")
    if option.type is int:
        if isinstance(value, bool):
            raise fail("an int")
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                raise fail("an int") from None
        raise fail("an int")
    if option.type is float:
        if isinstance(value, bool):
            raise fail("a float")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                raise fail("a float") from None
        raise fail("a float")
    # str target: render scalars back to text.
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class PassRegistry:
    """Name -> :class:`RegisteredPass` mapping with spec-level build."""

    def __init__(self):
        self._entries: dict[str, RegisteredPass] = {}

    def register(self, cls: type[ModulePass]) -> type[ModulePass]:
        """Register a pass class under its canonical ``name``.

        Validates kebab-case naming and asserts name uniqueness —
        two different classes may not claim the same name.  Usable as
        a decorator, and invoked automatically for every ``ModulePass``
        subclass that declares its own ``name``.
        """
        name = cls.__dict__.get("name")
        if not isinstance(name, str) or name == ModulePass.name:
            raise ValueError(
                f"pass class {cls.__name__} declares no canonical "
                f"'name' attribute"
            )
        if not _KEBAB_RE.match(name):
            raise ValueError(
                f"pass name {name!r} of {cls.__name__} is not "
                f"kebab-case"
            )
        existing = self._entries.get(name)
        if existing is not None and existing.cls is not cls:
            raise ValueError(
                f"duplicate pass name {name!r}: already registered by "
                f"{existing.cls.__name__}, re-declared by {cls.__name__}"
            )
        self._entries[name] = RegisteredPass(
            name=name, cls=cls, options=_introspect_options(cls)
        )
        return cls

    def names(self) -> tuple[str, ...]:
        """All registered pass names, sorted."""
        return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(sorted(self._entries.values(), key=lambda e: e.name))

    def get(self, name: str) -> RegisteredPass:
        """Look up a pass by name; unknown names raise with suggestions."""
        try:
            return self._entries[name]
        except KeyError:
            message = f"unknown pass {name!r}"
            close = difflib.get_close_matches(name, self._entries, n=3)
            if close:
                message += f" — did you mean {' or '.join(close)}?"
            message += f" (registered passes: {', '.join(self.names())})"
            raise PipelineSpecError(message) from None

    def build(self, spec: PassSpec) -> ModulePass:
        """Instantiate and configure the pass a spec describes."""
        entry = self.get(spec.name)
        kwargs: dict[str, object] = {}
        for key, value in spec.options.items():
            option = entry.option(key)
            if option is None:
                valid = ", ".join(o.name for o in entry.options)
                raise PipelineSpecError(
                    f"unknown option {key!r} for pass '{entry.name}'"
                    + (
                        f" (valid options: {valid})"
                        if valid
                        else " (it takes no options)"
                    )
                )
            kwargs[option.py_name] = _coerce(entry.name, option, value)
        for option in entry.options:
            if option.required and option.py_name not in kwargs:
                raise PipelineSpecError(
                    f"pass '{entry.name}' requires option "
                    f"'{option.name}' ({option.describe()})"
                )
        return entry.cls(**kwargs)

    def build_pipeline_specs(
        self, specs: list[PassSpec]
    ) -> list[ModulePass]:
        """Build every pass of a parsed pipeline spec."""
        return [self.build(spec) for spec in specs]


#: The process-wide registry all passes auto-register into.
PASS_REGISTRY = PassRegistry()


def register_pass(cls: type[ModulePass]) -> type[ModulePass]:
    """Explicit registration decorator (auto-registration usually
    makes this unnecessary)."""
    return PASS_REGISTRY.register(cls)


def _auto_register(cls: type) -> None:
    """Subclass hook: register every pass that declares its own name.

    Scoped to classes defined inside the ``repro`` package — the
    global registry must stay deterministic regardless of what test
    or user modules define.  External passes opt in explicitly with
    :func:`register_pass`.
    """
    if cls.__module__.partition(".")[0] != "repro":
        return
    name = cls.__dict__.get("name")
    if not isinstance(name, str) or name == ModulePass.name:
        return  # abstract/helper subclass; nothing to register
    PASS_REGISTRY.register(cls)


def _sweep_existing(cls: type) -> None:
    _auto_register(cls)
    for subclass in cls.__subclasses__():
        _sweep_existing(subclass)


if _auto_register not in pass_manager.SUBCLASS_HOOKS:
    pass_manager.SUBCLASS_HOOKS.append(_auto_register)
    for _existing in ModulePass.__subclasses__():
        _sweep_existing(_existing)

# Importing the pass modules defines (hence registers) every pass.
from . import allocate_registers_pass  # noqa: E402,F401
from . import canonicalize  # noqa: E402,F401
from . import convert_linalg_to_memref_stream  # noqa: E402,F401
from . import convert_to_riscv  # noqa: E402,F401
from . import dce  # noqa: E402,F401
from . import fuse_fill  # noqa: E402,F401
from . import lower_generic_to_loops  # noqa: E402,F401
from . import lower_generic_to_pointer_loops  # noqa: E402,F401
from . import lower_riscv_scf  # noqa: E402,F401
from . import lower_snitch_stream  # noqa: E402,F401
from . import lower_to_snitch  # noqa: E402,F401
from . import scalar_replacement  # noqa: E402,F401
from . import unroll_and_jam  # noqa: E402,F401
from . import verify_streams  # noqa: E402,F401

__all__ = [
    "PASS_REGISTRY",
    "PassOption",
    "PassRegistry",
    "RegisteredPass",
    "REQUIRED",
    "register_pass",
]
