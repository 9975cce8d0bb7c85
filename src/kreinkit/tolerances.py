"""Shared tolerance profile.

Every numerically consequential decision (eigenvalue zero classification,
Loewner-order slack, factorization residual bounds, subspace comparison)
goes through a single :class:`ToleranceProfile`.  A process-wide default
may be installed once at startup; individual calls can override it.

A quantity derived from an immutable instance under a profile is computed
once per instance and profile (:func:`per_profile`) and kept in the
instance's own ``_memo`` dict, so it lives exactly as long as the instance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import InvalidInput


@dataclass(frozen=True)
class ToleranceProfile:
    """Relative tolerances used throughout the package.

    zero
        Eigenvalue/singular-value zero classification, scaled by
        ``dim * norm`` of the matrix at hand.
    psd
        Slack for Loewner-order tests, scaled by ``1 + norms``.
    residual
        Bound for factorization and identity residuals.
    subspace
        Principal-angle bound for subspace comparisons.
    """

    zero: float = 1e-10
    psd: float = 1e-9
    residual: float = 1e-8
    subspace: float = 1e-8

    def __post_init__(self):
        for field in ("zero", "psd", "residual", "subspace"):
            value = getattr(self, field)
            if not (value > 0.0):
                raise InvalidInput(f"tolerance {field!r} must be strictly positive, got {value}")


_default = ToleranceProfile()


def default_tolerances() -> ToleranceProfile:
    """Return the process-wide default profile."""
    return _default


def set_default_tolerances(profile: ToleranceProfile) -> None:
    """Install ``profile`` as the process-wide default (call once at startup)."""
    global _default
    if not isinstance(profile, ToleranceProfile):
        raise InvalidInput("expected a ToleranceProfile")
    _default = profile


def resolve(tol: ToleranceProfile | None) -> ToleranceProfile:
    return _default if tol is None else tol


def memoized(owner, key, build):
    """``owner._memo[key]``, filled by ``build()`` on first use.

    Every array reachable through the value's tuples and dataclass fields is
    made read-only, so no caller can change what later callers read.  An
    exception from ``build`` propagates and stores nothing.  Two threads
    asking first may both build; they store equal values, so no lock is
    needed.
    """
    memo = owner._memo
    if key not in memo:
        value = build()
        _freeze(value)
        memo[key] = value
    return memo[key]


def per_profile(fn):
    """Make ``fn(owner, tol)`` a quantity of ``owner`` computed once per profile.

    The wrapper resolves ``tol`` (so the process default is looked up on
    every call) and keys the value on ``(fn.__name__, profile)``; equal
    profiles share an entry and different ones get their own.
    """

    @functools.wraps(fn)
    def wrapper(owner, tol: ToleranceProfile | None = None):
        tol = resolve(tol)
        return memoized(owner, (fn.__name__, tol), lambda: fn(owner, tol))

    return wrapper


def _freeze(value) -> None:
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    elif is_dataclass(value):
        for f in fields(value):
            _freeze(getattr(value, f.name))
