"""Exception types shared across the package.

Every error raised on a contract violation subclasses one of these, so callers
can distinguish "you fed me bad data" (:class:`PreconditionError` family) from
"the computation could not certify what you asked for"
(:class:`NoConvergence`).

A check over a point set names the first failing row in row order, through
:func:`raise_first`: its message ends with that point at full precision,
as ``at x = [...]``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def raise_first(exc: type, bad: np.ndarray, points: np.ndarray,
                what: Callable[[int], str]) -> None:
    """Raise ``exc`` for the first row ``i`` where the mask ``bad`` holds,
    with the message ``f"{what(i)} at x = {points[i].tolist()}"``; return
    if no row is bad."""
    if bad.any():
        i = int(bad.argmax())
        raise exc(f"{what(i)} at x = {points[i].tolist()}")


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class MembershipError(ValueError):
    """A form lies outside the image of the operator beyond tolerance.

    Carries the offending residual so callers can report diagnostics, and
    for a stacked check the row of the first form that failed.
    """

    def __init__(self, message: str, residual: float, rel_residual: float,
                 row: int):
        super().__init__(message)
        self.residual = residual
        self.rel_residual = rel_residual
        self.row = row


class DegenerateGradient(PreconditionError):
    """The defining function's gradient vanishes at a boundary sample."""


class DomainError(ArithmeticError):
    """Evaluation left the domain of a scalar field (log/sqrt/fractional
    power of a non-positive value, division by zero, or non-finite result)."""


class ParseError(ValueError):
    """Scalar-field expression text could not be parsed.

    ``offset`` is the byte offset into the source text where the problem was
    detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariable(ParseError):
    """A variable name outside the declared dimension was referenced."""


class ArityError(ParseError):
    """A function call had the wrong number of arguments."""


class EmptyDomain(ValueError):
    """A grid domain contains no cells after region clipping."""


class SupportError(PreconditionError):
    """Sampled data does not vanish on the required boundary collar."""


class NotClosed(PreconditionError):
    """The right-hand side is not closed to within the solve tolerance."""

    def __init__(self, message: str, rel_residual: float):
        super().__init__(message)
        self.rel_residual = rel_residual


class NoConvergence(RuntimeError):
    """An iterative solve exhausted its budget without meeting tolerance."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class CohomologyObstruction(ValueError):
    """The right-hand side has a nontrivial harmonic component, so no exact
    solution exists; the obstruction norm is recorded."""

    def __init__(self, message: str, obstruction_norm: float):
        super().__init__(message)
        self.obstruction_norm = obstruction_norm


class TailError(PreconditionError):
    """The integrand does not decay enough on the quadrature box boundary."""


class ConfigError(ValueError):
    """An experiment configuration file is malformed or inconsistent."""


class InfeasibleOnGrid(UserWarning):
    """Diagnostic: no grid point satisfied the searched condition (the grid
    may simply be too coarse)."""
