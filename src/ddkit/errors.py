"""Exception hierarchy shared by every ddkit module.

Every error carries enough context to be actionable: the operation that
raised it, the offending value (when there is one), and the module of
origin.  The CLI maps these classes onto process exit codes, so library
code must raise them rather than bare ValueError/RuntimeError.

Four checks decide what a valid argument is, for every public entry
point: ``real`` (a finite real number, returned as a float),
``integer`` (an int or numpy integer, returned as an int),
``real_array`` (a 1d array of finite real numbers, returned as a float
ndarray) and ``pair`` (exactly two entries, returned as a tuple for the
caller to check one by one).  All raise ValidationError naming the
caller's operation and module.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


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


def real_array(v, name, operation, module, min_size=1) -> np.ndarray:
    """v as a 1d float ndarray of at least min_size finite entries.

    Takes sequences and arrays of ints and floats, numpy's too; refuses
    bools, strings, complex numbers, ragged or nested input, NaN and
    +-inf.
    """
    try:
        a = np.asarray(v)
    except (TypeError, ValueError):
        a = np.array(None)
    if (a.dtype.kind in "iuf" and a.ndim == 1 and a.size >= min_size
            and not holds_bool(v)):
        a = a.astype(float, copy=False)
        if np.isfinite(a).all():
            return a
    raise ValidationError(f"{name} must be a 1d array of at least {min_size} "
                          "finite real numbers", operation=operation,
                          value=v, module=module)


def holds_bool(v) -> bool:
    """Whether v, which numpy reads as a numeric array, holds a bool: the
    entries of a list are read before numpy promotes [True, 0.5]."""
    if isinstance(v, np.ndarray) and v.dtype != object:
        return v.dtype.kind == "b"
    return any(isinstance(e, (bool, np.bool_)) for e in np.asarray(v, dtype=object).flat)


def pair(v, name, operation, module) -> tuple:
    """The two entries of v, unchecked; anything that is not a sequence
    of exactly two entries is refused."""
    try:
        a, b = v
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a pair of numbers",
                              operation=operation, value=v, module=module) from None
    return a, b
