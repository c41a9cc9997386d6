"""Independent numerical checks sharing no code with the solver modules.

Three engines: a finite-difference eigensolver for the radial Coulomb
problem in ordinary configuration space (Sturm-sequence bisection on the
symmetric tridiagonal three-point discretization of the reduced radial
function between walls at the origin and at r_max, Richardson
extrapolation over two spacings, guards on the spacing and outer-wall
errors), an associated Laguerre evaluator by three-term recurrence, and
a finite-difference commutator probe for phase-space operator
coefficient tuples.  Anything these confirm was arrived at twice.

Each Sturm count stops once no later pivot q_k = d_k - x - b_{k-1}^2/q_{k-1}
can turn negative: d_k - x >= |b_{k-1}| + |b_k| on every later row and
q_k > |b_k| give q_{k+1} > |b_{k+1}| (as b_k^2/q_k < |b_k|), and so on.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, islice
from math import exp, inf, nextafter, sqrt
from statistics import fmean
from typing import Callable, Sequence

from .errors import GridTooCoarse
from .hydrogen import PhysicalParams
from .opspace import OpPoint

#: Central-difference step for the commutator probe.
FD_STEP = 1e-4

#: Largest error estimate ``fd_spectrum`` admits, in the energy units of
#: its params (hartree in atomic units).
FD_TOLERANCE = 1e-4


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [0, r_max], with Dirichlet zeros of u = r*R at both
    ends: exact at the origin (u ~ r^(L+1)), bounded by ``fd_spectrum``
    at r_max."""

    r_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not 0.0 < self.r_max < inf:
            raise ValueError("r_max must be positive and finite")
        if not isinstance(self.n_points, int) or self.n_points < 100:
            raise ValueError("n_points must be an int of at least 100")

    @property
    def spacing(self) -> float:
        return self.r_max / (self.n_points - 1)

    def halved(self) -> "RadialGrid":
        # companion grid with doubled spacing, same endpoints
        return RadialGrid(self.r_max, (self.n_points - 1) // 2 + 1)


def _tridiag_coulomb(params: PhysicalParams, grid: RadialGrid) -> tuple[list[float], float]:
    """Diagonal and off-diagonal magnitude of the reduced-radial operator.

    Unknowns are the interior nodes r = i*h of u = r*R; the operator is
    -(hbar^2/2m) u'' + [hbar^2 L(L+1)/(2m r^2) - k e^2 / r] u, with every
    off-diagonal entry equal to -kin and Dirichlet zeros at r = 0 and
    r = r_max.
    """
    h = grid.spacing
    kin = params.hbar**2 / (2.0 * params.mass * h * h)
    L = params.angular_momentum
    cent = params.hbar**2 * L * (L + 1) / (2.0 * params.mass)
    coul = params.coulomb_constant * params.charge_squared
    diag: list[float] = []
    for i in range(1, grid.n_points - 1):
        r = i * h
        diag.append(2.0 * kin + cent / (r * r) - coul / r)
    return diag, kin


def _sturm(
    rows: Sequence[float], b: float, x: float, tail: Sequence[float] | None = None
) -> tuple[int, float]:
    """Negative pivots and last pivot of the LDL^T factorization of T - x.

    T is symmetric tridiagonal with diagonal ``rows``, taken in order, and
    off-diagonals of magnitude ``b``; the negative pivots count the levels
    strictly below x.  With ``tail``, the suffix minima of ``rows``, the
    sweep stops at the first pivot above b once every later d - x >= 2b,
    and the pivot returned is then not the last.
    """
    b2 = b * b
    stop = None if tail is None else bisect_left(tail, x + 2.0 * b)
    count, q = 0, inf  # b2 / q vanishes on the first row
    sweep = iter(rows)
    try:
        for d in islice(sweep, stop):
            q = d - x - b2 / q
            if q < 0.0:
                count += 1
        for d in sweep:
            q = d - x - b2 / q
            if q > b:
                break
            if q < 0.0:
                count += 1
    except ZeroDivisionError:
        # an exact zero pivot: x is an eigenvalue of a leading block
        return _sturm(rows, b, nextafter(x, inf), tail)
    return count, q


def _last_weight(diag: Sequence[float], b: float, level: float) -> float:
    """Squared last component w of the unit eigenvector of ``level``.

    The final pivot of T - x is 1 / (T - x)^{-1}_{-1,-1} =
    1 / (w / (level - x) + B(x)), where B, the sum over the other levels,
    is smooth near ``level``; the pivots a gap below and above it differ
    by 2 gap / w in their reciprocals, and B cancels.
    """
    gap = 1e-8 * max(1.0, abs(level))
    below = _sturm(diag, b, level - gap)[1]
    above = _sturm(diag, b, level + gap)[1]
    return 0.5 * gap * (1.0 / below - 1.0 / above)


def _levels(
    diag: Sequence[float],
    kin: float,
    n_states: int,
    seeds: Sequence[float] | None = None,
) -> list[float]:
    """Lowest n_states eigenvalues by bisection on the count function.

    Without seeds each level is bracketed from below by the previous
    level (or the Gershgorin bound) and from above by zero while the count
    at zero confirms that the level is bound, by the Gershgorin bound
    otherwise.  With seeds (the same levels on a nearby grid) the count at
    the seed tells on which side the level lies, and the bracket grows
    from the seed to that side in steps of 4x until the count confirms it,
    never past the Gershgorin bounds; the first step is 1e-4 * max(1,
    |seed|), later ones start at twice the previous level's distance from
    its seed.  Either way a level that is not bound is still found
    wherever it lies.  Each count stops early on the suffix minima of
    ``diag``: they do not decrease, so a bisection finds the exit row.
    """
    if n_states > len(diag):
        raise ValueError("more states requested than interior nodes")
    tail = list(accumulate(reversed(diag), min))[::-1]
    floor, ceiling = tail[0] - 2.0 * kin, max(diag) + 2.0 * kin
    bound = _sturm(diag, kin, 0.0, tail)[0] if seeds is None else 0
    levels: list[float] = []
    for j in range(n_states):
        if seeds is None:
            lo = levels[-1] if levels else floor
            hi = 0.0 if j < bound else ceiling
        else:
            near, scale = seeds[j], max(1.0, abs(seeds[j]))
            step = 2.0 * abs(levels[-1] - seeds[j - 1]) if levels else 1e-4 * scale
            step = max(step, 1e-14 * scale)
            below = _sturm(diag, kin, near, tail)[0] > j
            while True:
                far = min(max(near - step if below else near + step, floor), ceiling)
                if (_sturm(diag, kin, far, tail)[0] > j) != below:
                    break
                near, step = far, 4.0 * step
            lo, hi = (far, near) if below else (near, far)
        while hi - lo > 1e-14 * max(1.0, abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if _sturm(diag, kin, mid, tail)[0] > j:
                hi = mid
            else:
                lo = mid
        levels.append(0.5 * (lo + hi))
    return levels


def fd_spectrum(params: PhysicalParams, grid: RadialGrid, n_states: int) -> list[float]:
    """Lowest n_states eigenvalues at the angular momentum of ``params``,
    ascending, with self-consistency guards.

    Each level is the Richardson extrapolation of the three-point scheme
    on ``grid`` and on its companion at doubled spacing: with s the true
    ratio of the two spacings, E = E_fine + (E_fine - E_coarse)/(s^2 - 1),
    which removes the second-order error.  Two error terms are bounded,
    both in the energy units of ``params`` (hartree in atomic units), like
    ``FD_TOLERANCE``, and both taken as the largest over the returned levels:

    - spacing: |E_fine - E_coarse| / (s^2 - 1), the error of the
      unextrapolated fine-grid level;
    - outer wall: the rise of the level caused by the Dirichlet zero at
      R = r_max.  As dE/dR = -(hbar^2/2m) u'(R)^2 for a normalized u
      (Hellmann-Feynman) and u' decays like exp(-q r), q^2 = -2mE/hbar^2,
      the shift against an infinite box is (hbar^2/2m) u'(R)^2 / (2q),
      with u'(R) = -u(R - h)/h from the fine-grid eigenvector.  It runs
      up to about 2x low: the power of r in u slows the decay.

    The inner wall at the origin is exact, so it needs no guard.  The
    call raises ``GridTooCoarse`` when either term exceeds ``FD_TOLERANCE``
    and when any returned level is not bound, which signals box
    truncation rather than physics.
    """
    if n_states < 1:
        raise ValueError("n_states must be at least 1")
    try:
        companion = grid.halved()
    except ValueError as exc:
        raise GridTooCoarse(
            f"grid too small for the halved-spacing companion check: {exc}"
        ) from exc
    coarse = _levels(*_tridiag_coulomb(params, companion), n_states)
    diag, kin = _tridiag_coulomb(params, grid)
    fine = _levels(diag, kin, n_states, seeds=coarse)
    s2 = (companion.spacing / grid.spacing) ** 2
    levels = [f + (f - c) / (s2 - 1.0) for f, c in zip(fine, coarse)]
    for j, energy in enumerate(levels):
        if energy >= 0.0:
            raise GridTooCoarse(
                f"state {j} is not bound on this box (E={energy:.4g}); "
                "enlarge r_max"
            )
    spacing_error = max(abs(f - c) for f, c in zip(fine, coarse)) / (s2 - 1.0)
    if spacing_error > FD_TOLERANCE:
        raise GridTooCoarse(
            f"estimated discretization error {spacing_error:.3e} "
            f"exceeds tolerance {FD_TOLERANCE:.3e}; refine the grid"
        )
    # with w = v[-1]^2 of the unit eigenvector, u'(R)^2 = w / h^3 and
    # (hbar^2/2m) u'(R)^2 / (2q) = kin w / (2 q h), where q h = sqrt(-E/kin)
    wall_error = max(
        kin * _last_weight(diag, kin, f) / (2.0 * sqrt(-energy / kin))
        for f, energy in zip(fine, levels)
    )
    if wall_error > FD_TOLERANCE:
        raise GridTooCoarse(
            f"estimated outer-wall error {wall_error:.3e} "
            f"exceeds tolerance {FD_TOLERANCE:.3e}; enlarge r_max"
        )
    return levels


def laguerre(n: int, a: float, x: float) -> float:
    """Associated Laguerre value by the three-term recurrence."""
    if n < 0:
        raise ValueError("n must be non-negative")
    prev = 1.0
    if n == 0:
        return prev
    cur = 1.0 + a - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)
    return cur


def _gaussian_state(r: float, p: float) -> float:
    return exp(-0.5 * (r * r + p * p))


def commutator_check(
    point: OpPoint, hbar: float, samples: Sequence[tuple[float, float]]
) -> complex:
    """Mean of ([r_op, p_op] psi) / (i hbar psi) over the samples.

    The operators r_op = alpha*r + i*hbar*beta*d/dp and
    p_op = gamma*p + i*hbar*delta*d/dr act on a Gaussian test state through
    central differences, so the result is a measurement, not algebra; it
    should land on beta*gamma - alpha*delta regardless of the state.
    """
    h = FD_STEP

    def r_op(f: Callable[[float, float], complex]) -> Callable[[float, float], complex]:
        def out(r: float, p: float) -> complex:
            deriv = (f(r, p + h) - f(r, p - h)) / (2.0 * h)
            return point.alpha * r * f(r, p) + 1j * hbar * point.beta * deriv

        return out

    def p_op(f: Callable[[float, float], complex]) -> Callable[[float, float], complex]:
        def out(r: float, p: float) -> complex:
            deriv = (f(r + h, p) - f(r - h, p)) / (2.0 * h)
            return point.gamma * p * f(r, p) + 1j * hbar * point.delta * deriv

        return out

    rp = r_op(p_op(_gaussian_state))
    pr = p_op(r_op(_gaussian_state))
    values = [
        (rp(r, p) - pr(r, p)) / (1j * hbar * _gaussian_state(r, p))
        for r, p in samples
    ]
    return complex(fmean(v.real for v in values), fmean(v.imag for v in values))
