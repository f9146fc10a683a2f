"""Exception hierarchy shared by every ddkit module.

Every error carries enough context to be actionable: the operation that
raised it, the offending value (when there is one), and the module of
origin.  The CLI maps these classes onto process exit codes, so library
code must raise them rather than bare ValueError/RuntimeError.

Two checks decide what a valid scalar argument is, for every public
entry point: ``real`` (a finite real number, returned as a float) and
``integer`` (an int or numpy integer, returned as an int).  Both raise
ValidationError naming the caller's operation and module.
"""

from __future__ import annotations

import math
import numbers


class DdkitError(Exception):
    """Base class for all ddkit errors."""

    def __init__(self, message, *, operation=None, value=None, module=None):
        self.operation = operation
        self.value = value
        self.module = module
        parts = []
        tag = ".".join(p for p in (module, operation) if p)
        if tag:
            parts.append(f"[{tag}]")
        parts.append(message)
        if value is not None:
            parts.append(f"(value={value!r})")
        super().__init__(" ".join(parts))


class ValidationError(DdkitError):
    """Malformed input: bad parameter ranges, bad config files, bad grids."""


class DomainError(DdkitError):
    """A state-space point or interval lies outside the model's domain."""


class NumericError(DdkitError):
    """A numerical routine failed to reach its accuracy target."""

    def __init__(self, message, *, partial=None, **kw):
        self.partial = partial
        super().__init__(message, **kw)


class DegenerateBasisError(NumericError):
    """A solution-basis denominator vanished relative to its operands."""


class UnsupportedModelError(ValidationError):
    """The requested operation needs model structure this model lacks."""


def real(v, name, operation, module, lower=None, strict=False) -> float:
    """v as a Python float.

    Refuses bools (numpy's too), anything that is not a real number,
    NaN and +-inf; numpy scalars are taken.  With lower, v must be at
    least lower, or above it when strict.
    """
    try:
        f = (float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool)
             else math.nan)
    except OverflowError:       # an int beyond the float range
        f = math.inf
    if not math.isfinite(f):
        raise ValidationError(f"{name} must be a finite real number",
                              operation=operation, value=v, module=module)
    if lower is not None and not (f > lower if strict else f >= lower):
        raise ValidationError(f"{name} must be {'>' if strict else '>='} {lower:g}",
                              operation=operation, value=v, module=module)
    return f


def integer(v, name, operation, module, lower, upper=None) -> int:
    """v as a Python int with lower <= v, and v < upper when upper is
    given.  Takes ints and numpy integers; refuses bools."""
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        n = int(v)
        if lower <= n and (upper is None or n < upper):
            return n
    span = f">= {lower}" if upper is None else f"in [{lower}, {upper})"
    raise ValidationError(f"{name} must be an integer {span}",
                          operation=operation, value=v, module=module)
