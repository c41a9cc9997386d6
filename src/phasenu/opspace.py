"""Coefficient-manifold algebra for phase-space operator definitions.

A phase-space representation is fixed by four real coefficients
(alpha, beta, gamma, delta) entering

    r_op = alpha*r + i*hbar*beta * d/dp ,   p_op = gamma*p + i*hbar*delta * d/dr

subject to beta*gamma - alpha*delta = 1, which is exactly the condition
[r_op, p_op] = i*hbar.  Points are transformed by diagonal integer matrices
acting componentwise; the four fundamental transforms g_1..g_4 each zero one
coefficient, their complements c_k = I - g_k carry a single 1, and repeated
application composes additively: g' = g0 - sum(count_k * c_k).  Only
transforms touching the (alpha, beta) pair or the (gamma, delta) pair may be
mixed in one composition.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Sequence

from .errors import ForbiddenCombination, WavefunctionDependentAngle

#: Tolerance on |beta*gamma - alpha*delta - 1| for manifold membership.
MANIFOLD_TOL = 1e-12


class OpPoint(NamedTuple):
    """Operator coefficient 4-tuple; membership of the constraint surface
    is a query, not a construction invariant, because transforms may move
    points off it."""

    alpha: float
    beta: float
    gamma: float
    delta: float


def manifold_point(alpha: float, beta: float, delta: float) -> OpPoint:
    """Point with gamma chosen to satisfy the constraint exactly.

    gamma = (1 + alpha*delta)/beta, so beta must be nonzero.
    """
    gamma = (1.0 + alpha * delta) / beta
    return OpPoint(alpha, beta, gamma, delta)


def commutator_coefficient(p: OpPoint) -> float:
    """Coefficient c in [r_op, p_op] = i*hbar*c, namely beta*gamma - alpha*delta."""
    return p.beta * p.gamma - p.alpha * p.delta


def is_on_manifold(p: OpPoint) -> bool:
    """Whether beta*gamma - alpha*delta = 1 within MANIFOLD_TOL."""
    return abs(commutator_coefficient(p) - 1.0) <= MANIFOLD_TOL


class GEta(NamedTuple("GEta", [("diag", tuple[int, int, int, int])])):
    """Diagonal integer transform matrix, stored as its diagonal.  The
    complement I - g of a transform is one too: for a fundamental
    transform it has a single 1 marking the coefficient g zeroes.  Each
    entry must equal its ``int``; ``complement`` and ``compose`` skip
    this check, building their results from ints."""

    __slots__ = ()

    def __new__(cls, diag: Iterable[int]) -> GEta:
        raw = tuple(diag)
        try:
            d = tuple(map(int, raw))
        except (TypeError, ValueError, OverflowError):
            d = None
        if d != raw:
            raise ValueError(f"diagonal entries must be integers, got {raw!r}")
        if len(d) != 4:
            raise ValueError("diagonal must have four entries")
        return tuple.__new__(cls, (d,))


def _geta(diag: tuple[int, int, int, int]) -> GEta:
    """GEta from four ints already known to be valid, skipping the checks."""
    return tuple.__new__(GEta, (diag,))


def identity() -> GEta:
    return GEta((1, 1, 1, 1))


def fundamental(kind: int) -> GEta:
    """The transform that zeroes coefficient number ``kind`` (1-based)."""
    if kind not in (1, 2, 3, 4):
        raise ValueError(f"kind must be in 1..4, got {kind}")
    diag = [1, 1, 1, 1]
    diag[kind - 1] = 0
    return GEta(tuple(diag))


def complement(g: GEta) -> GEta:
    """Entrywise I - g."""
    a, b, c, d = g.diag
    return _geta((1 - a, 1 - b, 1 - c, 1 - d))


def compose(g0: GEta, applications: Sequence[tuple[GEta, int]]) -> GEta:
    """Apply counted complement shifts to g0: g' = g0 - sum(count * c).

    Negative counts undo applications.  Every complement in the list must
    touch only the (alpha, beta) slots or only the (gamma, delta) slots;
    mixing the two groups in one composition is rejected.
    """
    position = momentum = False
    for shift, _count in applications:
        a, b, c, d = shift.diag
        position = position or a != 0 or b != 0
        momentum = momentum or c != 0 or d != 0
    if position and momentum:
        touched = {i for s, _count in applications for i, x in enumerate(s.diag) if x != 0}
        raise ForbiddenCombination(
            f"composition touches coefficient slots {sorted(touched)}; "
            "only the (alpha, beta) pair or the (gamma, delta) pair may mix"
        )
    a, b, c, d = g0.diag
    for shift, count in applications:
        k = int(count)
        if count != k:
            raise ValueError("application counts must be integers")
        sa, sb, sc, sd = shift.diag
        a, b, c, d = a - k * sa, b - k * sb, c - k * sc, d - k * sd
    return _geta((a, b, c, d))


#: The least int magnitude that ``float`` refuses: halfway from the
#: largest float to 2**1024, from where rounding goes up.
_FLOAT_OVERFLOW = 2**1024 - 2**970


def apply_to_point(g: GEta, p: OpPoint) -> tuple[OpPoint, bool]:
    """Componentwise image g·(alpha,beta,gamma,delta) and its membership.
    An entry beyond the float range raises OverflowError naming its slot."""
    a, b, c, d = p
    try:
        image = OpPoint(g.diag[0] * a, g.diag[1] * b, g.diag[2] * c, g.diag[3] * d)
    except OverflowError:
        slot = next(name for name, k in zip(OpPoint._fields, g.diag) if abs(k) >= _FLOAT_OVERFLOW)
        raise OverflowError(
            f"transform entry {slot} does not fit a float; cannot apply it to "
            f"the point {tuple(p)!r}"
        ) from None
    return image, is_on_manifold(image)


class SpaceKind(enum.Enum):
    POSITION_LIKE = "position_like"
    MOMENTUM_LIKE = "momentum_like"
    FULL = "full"
    OTHER = "other"


def classify(g: GEta) -> SpaceKind:
    """Named masks: diag(1,0,0,1) and diag(0,1,1,0) are the two reduced
    phase spaces, the identity keeps everything, anything else is unnamed."""
    if g.diag == (1, 0, 0, 1):
        return SpaceKind.POSITION_LIKE
    if g.diag == (0, 1, 1, 0):
        return SpaceKind.MOMENTUM_LIKE
    if g.diag == (1, 1, 1, 1):
        return SpaceKind.FULL
    return SpaceKind.OTHER


class AngleKind(enum.Enum):
    PHI1 = 1
    PHI2 = 2
    PHI3 = 3
    PHI4 = 4


def phase_angle(
    kind: AngleKind, r: float, p: float, point: OpPoint, hbar: float
) -> complex:
    """Rotation angle attached to a fundamental transform at (r, p).

    Kinds 1 and 3 are coefficient ratios scaled by p*r/hbar.  Kinds 2 and 4
    involve the logarithm of the state being transformed and cannot be
    evaluated without one; they are descriptors only.
    """
    if kind is AngleKind.PHI1:
        return complex((p * r / hbar) * (point.alpha / point.beta))
    if kind is AngleKind.PHI3:
        return complex((p * r / hbar) * (point.gamma / point.delta))
    raise WavefunctionDependentAngle(
        f"{kind.name.lower()} depends on the transformed state and has "
        "no state-free value"
    )
