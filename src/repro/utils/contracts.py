"""Declared array contracts and their runtime validator.

A contract is a one-line, machine-readable signature for an array API::

    @array_contract("(nq, d) f32, k: int -> (nq, k) i64, (nq, k) f64")
    def search(queries, k): ...

Grammar (comma-separated entries, ``params -> returns``):

- **array entry** — ``(dims) dtype[::layout]``.  Dims are symbolic names
  (``nq``, ``d``), integer literals, ``_`` (unchecked), or a leading
  ``...`` (any number of leading axes; ``(...)`` alone means "any
  ndarray").  One symbol names one size: every occurrence across params
  and returns must agree.  A scalar ``int`` parameter's *name* is also a
  dim symbol, so ``k: int -> (nq, k) i64`` ties the return width to the
  argument.
- **dtype token** — ``f32 f64 i64 i32 u8 u64 bool`` (exact dtype),
  ``int`` (any integer), ``num`` (any numeric), ``any``.
- **layout** — ``::C`` (C-contiguous, the default: every strict kernel
  in this repo assumes it) or ``::any`` for coercing boundaries.
- **scalar entry** — ``name: int|float|str|bool|callable|any``.
- **returns** — array entries (two or more = a tuple), or one bare
  token (``None``, ``SearchResult``, ``any``) meaning *opaque*: the
  value is not array-checked.
- Entry names (``queries: (nq, d) f32``) are optional documentation;
  mapping onto parameters is purely positional, and a name that does
  not match the positionally-corresponding parameter is an import-time
  error, so contracts cannot drift from signatures silently.

The **runtime validator** makes the decorator check real arrays at call
time; it is the one net for shape / dtype / layout at the kernel
boundaries.  Mirroring :mod:`repro.testing.sanitizer`, violations are
*recorded* on a :class:`ContractTracker` rather than raised mid-call (a
shape bug usually still executes; raising inside a serving path would
poison unrelated teardown) and surfaced per-test by the conftest when
``REPRO_ARRAYCHECK=1``.

Violations carry a rule id — REP801 shape/dim, REP802 dtype, REP803
layout, REP804 sub-int64 id width — so tests can assert which contract
clause a seeded violation tripped.
"""

from __future__ import annotations

import functools
import inspect
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "ArrayContract",
    "ArraySpec",
    "ContractError",
    "ContractTracker",
    "ContractViolation",
    "ScalarSpec",
    "array_contract",
    "current_tracker",
    "dtype_verdict",
    "install",
    "parse_contract",
    "scoped_tracker",
    "uninstall",
]


class ContractError(ValueError):
    """Raised at import time for a malformed or misaligned contract."""


class ContractViolation(AssertionError):
    """Raised by :meth:`ContractTracker.check` when violations were recorded."""


# -- grammar ----------------------------------------------------------------------

#: dtype token -> accepted numpy dtype names (``None`` = computed set).
_EXACT_DTYPES: dict[str, str] = {
    "f32": "float32",
    "f64": "float64",
    "i64": "int64",
    "i32": "int32",
    "u8": "uint8",
    "u64": "uint64",
    "bool": "bool",
}

_INT_DTYPES = frozenset(
    {"int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"}
)

#: integer dtypes narrower than the id invariant (sub-64-bit -> REP804).
NARROW_INT_DTYPES = frozenset(
    {"int8", "int16", "int32", "uint8", "uint16", "uint32"}
)

_FLOAT_DTYPES = frozenset({"float16", "float32", "float64"})

_DTYPE_TOKENS = frozenset(_EXACT_DTYPES) | {"int", "num", "any"}

_SCALAR_KINDS = frozenset({"int", "float", "str", "bool", "callable", "any"})

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_ARRAY_RE = re.compile(
    r"^\((?P<dims>[^()]*)\)\s*(?P<dtype>[A-Za-z0-9]+)(?:::(?P<layout>C|any))?$"
)


@dataclass(frozen=True)
class ArraySpec:
    """One declared array: symbolic dims + dtype token + layout."""

    dims: tuple[str | int, ...]  # symbols, ints, "_", or a leading "..."
    dtype: str
    layout: str  # "C" or "any"
    name: str | None = None

    def describe(self) -> str:
        """The spec back in grammar form (for messages)."""
        dims = ", ".join(str(d) for d in self.dims)
        layout = "" if self.layout == "C" else f"::{self.layout}"
        return f"({dims}) {self.dtype}{layout}"


@dataclass(frozen=True)
class ScalarSpec:
    """One declared non-array parameter (``k: int``)."""

    kind: str
    name: str | None = None


@dataclass(frozen=True)
class ArrayContract:
    """A parsed contract: positional param specs + return specs."""

    text: str
    params: tuple[ArraySpec | ScalarSpec, ...]
    returns: tuple[ArraySpec, ...] | None  # None = opaque (unchecked)


def _split_top(text: str) -> list[str]:
    """Split on commas outside parentheses."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ContractError(f"unbalanced ')' in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ContractError(f"unbalanced '(' in {text!r}")
    parts.append("".join(current))
    return parts


def _split_name(entry: str) -> tuple[str | None, str]:
    """Strip an optional ``name:`` prefix (``::`` is the layout marker)."""
    index = entry.find(":")
    if index < 0 or entry[index : index + 2] == "::":
        return None, entry
    name = entry[:index].strip()
    if not _IDENT_RE.match(name):
        raise ContractError(f"invalid entry name {name!r} in {entry!r}")
    return name, entry[index + 1 :].strip()


def _parse_dims(text: str, entry: str) -> tuple[str | int, ...]:
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) > 1 and tokens[-1] == "":  # trailing comma: "(d,)"
        tokens = tokens[:-1]
    if tokens == [""]:
        raise ContractError(f"empty dims in {entry!r}; use a scalar kind")
    dims: list[str | int] = []
    for position, token in enumerate(tokens):
        if token == "...":
            if position != 0:
                raise ContractError(f"'...' must lead the dims in {entry!r}")
            dims.append("...")
        elif token == "_":
            dims.append("_")
        elif token.lstrip("-").isdigit():
            dims.append(int(token))
        elif _IDENT_RE.match(token):
            dims.append(token)
        else:
            raise ContractError(f"invalid dim {token!r} in {entry!r}")
    return tuple(dims)


def _parse_entry(entry: str, *, returns: bool) -> ArraySpec | ScalarSpec:
    stripped = entry.strip()
    if not stripped:
        raise ContractError(f"empty entry in contract (stray comma?)")
    name, spec = _split_name(stripped)
    if returns and name is not None:
        raise ContractError(f"return entries cannot be named: {entry!r}")
    if spec.startswith("("):
        match = _ARRAY_RE.match(spec)
        if match is None:
            raise ContractError(f"invalid array spec {spec!r}")
        dtype = match.group("dtype")
        if dtype not in _DTYPE_TOKENS:
            raise ContractError(
                f"unknown dtype token {dtype!r} in {spec!r} "
                f"(known: {', '.join(sorted(_DTYPE_TOKENS))})"
            )
        return ArraySpec(
            dims=_parse_dims(match.group("dims"), spec),
            dtype=dtype,
            layout=match.group("layout") or "C",
            name=name,
        )
    if returns:
        raise ContractError(f"invalid return spec {spec!r}")
    if spec not in _SCALAR_KINDS:
        raise ContractError(
            f"unknown scalar kind {spec!r} "
            f"(known: {', '.join(sorted(_SCALAR_KINDS))})"
        )
    return ScalarSpec(kind=spec, name=name)


def parse_contract(text: str) -> ArrayContract:
    """Parse the contract grammar; raises :class:`ContractError`."""
    if text.count("->") != 1:
        raise ContractError(f"contract needs exactly one '->': {text!r}")
    left, right = text.split("->")
    params: list[ArraySpec | ScalarSpec] = []
    if left.strip():
        for entry in _split_top(left):
            params.append(_parse_entry(entry, returns=False))
    right = right.strip()
    if not right:
        raise ContractError(f"missing return spec (use 'None'): {text!r}")
    entries = [e.strip() for e in _split_top(right)]
    if any(e.startswith("(") for e in entries):
        if not all(e.startswith("(") for e in entries):
            raise ContractError(
                f"returns mix array specs and opaque tokens: {text!r}"
            )
        returns: tuple[ArraySpec, ...] | None = tuple(
            _parse_entry(e, returns=True)  # type: ignore[misc]
            for e in entries
        )
    else:
        if len(entries) != 1:
            raise ContractError(f"multiple opaque return tokens: {text!r}")
        returns = None  # opaque: "None", "SearchResult", "any", ...
    return ArrayContract(text=text, params=tuple(params), returns=returns)


# -- dtype verdicts ----------------------------------------------------------------


def dtype_verdict(token: str, actual: str) -> tuple[str, str] | None:
    """``(rule, why)`` when dtype ``actual`` violates ``token``, else ``None``.

    A sub-int64 integer where ``i64`` is declared is the id-width
    overflow hazard (REP804); every other mismatch is a dtype-contract
    violation (REP802).
    """
    if token == "any":
        return None
    if token == "num":
        if actual in _INT_DTYPES or actual in _FLOAT_DTYPES:
            return None
        return ("REP802", f"declared numeric, got {actual}")
    if token == "int":
        if actual in _INT_DTYPES:
            return None
        return ("REP802", f"declared an integer dtype, got {actual}")
    if token == "i64":
        if actual == "int64":
            return None
        if actual in NARROW_INT_DTYPES:
            return (
                "REP804",
                f"declared i64 but carries {actual}: id arithmetic can "
                "overflow below int64",
            )
        return ("REP802", f"declared i64, got {actual}")
    expected = _EXACT_DTYPES[token]
    if actual == expected:
        return None
    return ("REP802", f"declared {token} ({expected}), got {actual}")


# -- runtime tracker ---------------------------------------------------------------


class ContractTracker:
    """Records runtime contract violations (``"REP80x message"`` strings).

    Thread-safe; like the lock-order sanitizer's tracker, violations are
    recorded rather than raised at the call site and surfaced at a safe
    point (:meth:`check`, or the conftest's per-test assert).
    """

    def __init__(self) -> None:
        # RLock, not Lock: the lock-order sanitizer may have patched
        # threading.Lock by the time a tracker is built, and this
        # meta-lock must never appear in the graph it would observe.
        self._meta = threading.RLock()
        self._violations: list[str] = []

    def record(self, rule: str, message: str) -> None:
        """Record one violation under rule id ``rule``."""
        with self._meta:
            self._violations.append(f"{rule} {message}")

    def violations(self) -> list[str]:
        """Copy of the recorded violation messages."""
        with self._meta:
            return list(self._violations)

    def rules_seen(self) -> set[str]:
        """The distinct REP80x ids recorded so far."""
        return {message.split(" ", 1)[0] for message in self.violations()}

    def check(self) -> None:
        """Raise :class:`ContractViolation` if anything was recorded."""
        found = self.violations()
        if found:
            raise ContractViolation(
                f"{len(found)} array-contract violation(s):\n"
                + "\n".join(f"  - {message}" for message in found)
            )

    def reset(self) -> None:
        """Forget recorded violations (per-suite isolation)."""
        with self._meta:
            self._violations.clear()


_INSTALLED: ContractTracker | None = None


def current_tracker() -> ContractTracker | None:
    """The globally installed tracker, or ``None``."""
    return _INSTALLED


def install() -> ContractTracker:
    """Enable runtime validation process-wide; idempotent."""
    global _INSTALLED
    if _INSTALLED is None:
        _INSTALLED = ContractTracker()
    return _INSTALLED


def uninstall() -> None:
    """Disable runtime validation and drop the tracker."""
    global _INSTALLED
    _INSTALLED = None


@contextmanager
def scoped_tracker():
    """A fresh tracker installed for the ``with`` body only.

    Restores whatever was installed before (including ``None``), so
    violation-seeding tests compose with a session-wide
    ``REPRO_ARRAYCHECK=1`` install.
    """
    global _INSTALLED
    previous = _INSTALLED
    tracker = ContractTracker()
    _INSTALLED = tracker
    try:
        yield tracker
    finally:
        _INSTALLED = previous


# -- runtime validation ------------------------------------------------------------


def _check_scalar(
    tracker: ContractTracker,
    where: str,
    label: str,
    spec: ScalarSpec,
    value: object,
    bindings: dict[str, int],
    param: str,
) -> None:
    import numpy as np

    if isinstance(value, (bool, np.bool_)):
        ok = spec.kind in ("bool", "any")
    elif isinstance(value, (int, np.integer)):
        ok = spec.kind in ("int", "float", "any")
        bindings.setdefault(param, int(value))  # scalar name doubles as a dim
    elif isinstance(value, (float, np.floating)):
        ok = spec.kind in ("float", "any")
    elif isinstance(value, str):
        ok = spec.kind in ("str", "any")
    elif callable(value):
        ok = spec.kind in ("callable", "any")
    else:
        ok = spec.kind == "any" or value is None
    if not ok:
        tracker.record(
            "REP802",
            f"{where}: {label} declared {spec.kind}, "
            f"got {type(value).__name__}",
        )


def _check_array(
    tracker: ContractTracker,
    where: str,
    label: str,
    spec: ArraySpec,
    value: object,
    bindings: dict[str, int],
) -> None:
    import numpy as np

    if value is None:  # optional arrays opt out per call
        return
    if not isinstance(value, np.ndarray):
        tracker.record(
            "REP801",
            f"{where}: {label} declared {spec.describe()}, "
            f"got {type(value).__name__}",
        )
        return
    dims = spec.dims
    if dims and dims[0] == "...":
        fixed = dims[1:]
        if value.ndim < len(fixed):
            tracker.record(
                "REP801",
                f"{where}: {label} declared {spec.describe()}, "
                f"got shape {value.shape}",
            )
            fixed = ()
        pairs = list(zip(fixed, value.shape[len(value.shape) - len(fixed) :]))
    elif value.ndim != len(dims):
        tracker.record(
            "REP801",
            f"{where}: {label} declared {len(dims)}-d "
            f"{spec.describe()}, got shape {value.shape}",
        )
        pairs = []
    else:
        pairs = list(zip(dims, value.shape))
    for dim, size in pairs:
        if dim == "_":
            continue
        if isinstance(dim, int):
            if size != dim:
                tracker.record(
                    "REP801",
                    f"{where}: {label} declared {spec.describe()}, "
                    f"got shape {value.shape}",
                )
                break
            continue
        bound = bindings.get(dim)
        if bound is None:
            bindings[dim] = int(size)
        elif bound != size:
            tracker.record(
                "REP801",
                f"{where}: {label} dim '{dim}' already bound to {bound}, "
                f"got {size} (shape {value.shape})",
            )
            break
    verdict = dtype_verdict(spec.dtype, value.dtype.name)
    if verdict is not None:
        rule, why = verdict
        tracker.record(rule, f"{where}: {label} {why}")
    if spec.layout == "C" and not value.flags.c_contiguous:
        tracker.record(
            "REP803",
            f"{where}: {label} declared C-contiguous "
            f"{spec.describe()}, got a non-contiguous array",
        )


def _check_returns(
    tracker: ContractTracker,
    where: str,
    specs: tuple[ArraySpec, ...],
    result: object,
    bindings: dict[str, int],
) -> None:
    if len(specs) == 1:
        _check_array(tracker, where, "return value", specs[0], result, bindings)
        return
    if not isinstance(result, (tuple, list)) or len(result) != len(specs):
        tracker.record(
            "REP801",
            f"{where}: declared {len(specs)} array returns, "
            f"got {type(result).__name__}",
        )
        return
    for index, (spec, value) in enumerate(zip(specs, result)):
        _check_array(
            tracker, where, f"return value {index}", spec, value, bindings
        )


def array_contract(spec: str):
    """Attach a parsed :class:`ArrayContract` and the runtime validator.

    The contract is parsed (and aligned against the signature) at import
    time, so a malformed spec or a misnamed entry fails loudly.  The
    wrapper is a no-op until :func:`install` (``REPRO_ARRAYCHECK=1`` via
    the conftest) provides a tracker.
    """
    contract = parse_contract(spec)

    def decorate(func):
        signature = inspect.signature(func)
        names = [
            p.name
            for p in signature.parameters.values()
            if p.kind
            in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]
        offset = 1 if names and names[0] in ("self", "cls") else 0
        positional = names[offset:]
        if len(contract.params) > len(positional):
            raise ContractError(
                f"{func.__qualname__}: contract declares "
                f"{len(contract.params)} parameters, signature has "
                f"{len(positional)}"
            )
        for index, entry in enumerate(contract.params):
            if entry.name is not None and entry.name != positional[index]:
                raise ContractError(
                    f"{func.__qualname__}: contract names entry {index} "
                    f"{entry.name!r} but parameter {index} is "
                    f"{positional[index]!r}"
                )

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracker = _INSTALLED
            if tracker is None:
                return func(*args, **kwargs)
            where = func.__qualname__
            bindings: dict[str, int] = {}
            for index, entry in enumerate(contract.params):
                param = positional[index]
                arg_index = index + offset
                if arg_index < len(args):
                    value = args[arg_index]
                elif param in kwargs:
                    value = kwargs[param]
                else:
                    continue  # default used; nothing to validate
                label = f"parameter '{param}'"
                if isinstance(entry, ScalarSpec):
                    _check_scalar(
                        tracker, where, label, entry, value, bindings, param
                    )
                else:
                    _check_array(tracker, where, label, entry, value, bindings)
            result = func(*args, **kwargs)
            if contract.returns is not None:
                _check_returns(
                    tracker, where, contract.returns, result, bindings
                )
            return result

        wrapper.__array_contract__ = contract
        return wrapper

    return decorate
