"""Independent numerical checks sharing no code with the solver modules.

Three engines: a finite-volume eigensolver for the radial Coulomb problem
in ordinary configuration space (Sturm-sequence bisection on a symmetric
tridiagonal matrix for u = r^(L+1) w on a grid graded toward the origin,
with a wall at r_max, Richardson extrapolation over N and N/2 cells,
guards on the cell-size and outer-wall errors), an associated Laguerre
evaluator by three-term recurrence, and a finite-difference commutator
probe for phase-space operator coefficient tuples.  Anything these
confirm was arrived at twice.

Each Sturm count stops once no later pivot q_k = d_k - x - b_{k-1}^2/q_{k-1}
can turn negative or zero: d_k - x > |b_{k-1}| + |b_k| on every later row
and q_k > |b_k| give q_{k+1} > |b_{k+1}| (as b_k^2/q_k <= |b_k|), and so on.

The bisection counts only where it must.  The count computed as
(d_k - x) - b_{k-1}^2/q_{k-1} is monotone in x in IEEE arithmetic (J. W.
Demmel, I. S. Dhillon and H. Ren, ETNA 3, 1995), so a point once counted
decides every mid on its side.  Each level keeps a certified bracket, and
a seed and, once the bracket is narrow, a secant on the twisted pivot of
T - x (I. S. Dhillon and B. N. Parlett, LAA 387, 2004) propose points about
the level, which are counted too.  Every decision is the one plain bisection
makes, so the levels have its bits; a proposal changes only the counts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, islice
from math import exp, fsum, inf, sqrt
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import GridTooCoarse

if TYPE_CHECKING:  # annotations only: the oracle runs no solver code
    from .hydrogen import PhysicalParams
    from .opspace import OpPoint

#: Central-difference step for the commutator probe.
FD_STEP = 1e-4

#: Largest error estimate ``fd_spectrum`` admits, in the energy units of
#: its params (hartree in atomic units).
FD_TOLERANCE = 1e-4

#: Most points a ``RadialGrid`` takes: one state of ``fd_spectrum`` holds
#: about 535 B and takes about 54 us per point, so the bound keeps a state
#: under about 54 MB and 5 s.
MAX_POINTS = 100_000

Row = tuple[float, float, float]  # (d_k, b_{k-1}^2, |b_k|) of a tridiagonal matrix

#: An exact zero pivot is taken as this negative infinitesimal, the negative
#: float nearest zero, as LAPACK's dlaebz takes -pivmin.  The next pivot is
#: then d - x + b^2 * 2^1074: +inf for |b| > 3e-8, d - x where b = 0.
_PIVMIN = -5e-324


class RadialGrid(NamedTuple("RadialGrid", [("r_max", float), ("n_points", int)])):
    """Nodes r_i = r_max (i/N)^2, i = 0..N with N = n_points - 1: graded
    toward the origin, where the Coulomb term is steepest.  The outer wall
    w(r_max) = 0 is bounded by ``fd_spectrum``; the origin needs no wall."""

    __slots__ = ()

    def __new__(cls, r_max: float, n_points: int) -> RadialGrid:
        if not 0.0 < r_max < inf:
            raise ValueError("r_max must be positive and finite")
        if not isinstance(n_points, int) or not 100 <= n_points <= MAX_POINTS:
            raise ValueError(f"n_points must be an int of at least 100 and at most {MAX_POINTS:,}")
        return tuple.__new__(cls, (r_max, n_points))

    @property
    def cells(self) -> int:
        return self.n_points - 1

    def halved(self) -> "RadialGrid":
        # companion grid with half the cells, same endpoints
        return RadialGrid(self.r_max, self.cells // 2 + 1)


#: The grid of the configuration-limit criterion and of ``spectrum_scan --fd``.
DEFAULT_GRID = RadialGrid(100.0, 1000)


@lru_cache(maxsize=2)  # a grid and its companion
def _geometry(grid: RadialGrid) -> tuple[tuple[float, ...], ...]:
    """Nodes r_i, cell edges r_{i+1/2}, widths r_{i+1} - r_i and edge ratios
    p_i = r_{i-1/2} / r_{i+1/2} (p_0 = 0) of ``grid``: the part of
    ``_weighted_coulomb`` that depends on the grid alone, built once per
    grid for every L, in tuples that no caller can change."""
    n, R = grid.cells, grid.r_max
    r = tuple(R * (i / n) ** 2 for i in range(n + 1))
    edge = tuple(R * ((i + 0.5) / n) ** 2 for i in range(n))
    width = tuple(b - a for a, b in zip(r, r[1:]))
    ratio = (0.0, *(a / b for a, b in zip(edge, edge[1:])))
    return r, edge, width, ratio


def _weighted_coulomb(params: PhysicalParams, grid: RadialGrid) -> tuple[list[Row], float]:
    """Rows of the weighted finite-volume operator, and u'(r_max)^2 per
    unit squared last component of a unit eigenvector.

    With u = r^s w, s = L + 1, the centrifugal term cancels: -(hbar^2/2m)
    (r^2s w')' - k e^2 r^(2s-1) w = E r^2s w.  Cell i = 0..N-1 spans
    [r_{i-1/2}, r_{i+1/2}], r_{i+1/2} = r_max ((i + 1/2)/N)^2 (cell 0 from
    0), with exact integrals M_i of r^2s and V_i of r^(2s-1) and outer flux
    F_i = (hbar^2/2m) r_{i+1/2}^2s / (r_{i+1} - r_i); the flux vanishes at
    0 and w_N = 0.  Then d_i = (F_{i-1} + F_i - k e^2 V_i) / M_i and
    b_i = F_i / sqrt(M_i M_{i+1}), the magnitude of the off-diagonal.
    M (``vol``), V and F are scaled by r_{i+1/2}^(2s+1) and written in
    p = r_{i-1/2} / r_{i+1/2}, so that no power of r over- or underflows.
    """
    s = params.angular_momentum + 1
    kin = params.hbar**2 / (2.0 * params.mass)
    coul = params.coulomb_constant * params.charge_squared
    r, edge, width, ratio = _geometry(grid)
    vol = [(1.0 - p ** (2 * s + 1)) / (2 * s + 1) for p in ratio]
    power = [p ** (2 * s) for p in ratio]
    inflow = [0.0] + [kin * w / h for w, h in zip(power[1:], width)]
    diag = [
        (f + kin / h - coul * (1.0 - w) / (2 * s)) / (e * m)
        for f, h, w, e, m in zip(inflow, width, power, edge, vol)
    ]
    off = [
        kin / h * p ** (s + 0.5) / (e * sqrt(m * m1))
        for h, p, e, m, m1 in zip(width, ratio[1:], edge, vol, vol[1:])
    ]
    rows = list(zip(diag, [0.0] + [b * b for b in off], off + [0.0]))
    slope = (r[-2] / edge[-1]) ** (2 * s) / (edge[-1] * vol[-1] * width[-1] ** 2)
    return rows, slope


def _sturm(rows: Sequence[Row], x: float, tail: Sequence[float]) -> int:
    """Levels of T below x: the negative pivots of the LDL^T factorization
    of T - x, T symmetric tridiagonal with ``rows``, taken in order.

    ``tail`` holds the suffix minima of d_k - |b_{k-1}| - |b_k|; the sweep
    stops at the first pivot q_k > |b_k| once every later row has
    d - x > |b_{k-1}| + |b_k|.  A row with d - x = |b_{k-1}| + |b_k|
    admits a zero pivot (diag(1, 0) at x = 0), so it is swept.

    An exact zero pivot counts, on every row, and is taken as ``_PIVMIN``:
    x is then an eigenvalue of a leading block, and the count is the one
    just above x, monotone in x.
    """
    count, q = 0, inf  # b_{-1}^2 / q vanishes on the first row
    sweep = iter(rows)
    for d, c, _ in islice(sweep, bisect_right(tail, x)):
        q = d - x - c / q
        if q <= 0.0:
            count += 1
            q = q or _PIVMIN
    for d, c, b in sweep:
        q = d - x - c / q
        if q > b:
            break
        if q <= 0.0:
            count += 1
            q = q or _PIVMIN
    return count


def _last_weight(rows: Sequence[Row], level: float) -> float:
    """Squared last component w of the unit eigenvector of ``level``.

    The final pivot of T - x is 1 / (T - x)^{-1}_{-1,-1} =
    1 / (w / (level - x) + B(x)), where B, the sum over the other levels,
    is smooth near ``level``; the pivots a gap below and above it differ
    by 2 gap / w in their reciprocals, and B cancels.  One sweep takes
    both pivot sequences, an exact zero taken as ``_PIVMIN`` as in
    ``_sturm``.
    """
    gap = 1e-8 * max(1.0, abs(level))
    lo, hi = level - gap, level + gap
    below = above = inf
    for d, c, _ in rows:
        below = d - lo - c / below or _PIVMIN
        above = d - hi - c / above or _PIVMIN
    return 0.5 * gap * (1.0 / below - 1.0 / above)


def _twisted(rows: Sequence[Row], x: float, k: int) -> float:
    """gamma_k(x) = q+_k + q-_k - (d_k - x) = 1 / (T - x)^{-1}_{kk}, with
    q+ the pivots of ``_sturm`` and q- those of the rows taken in reverse."""
    q = p = inf
    for d, c, _ in islice(rows, k + 1):
        q = d - x - c / q
    for d, _, b in islice(reversed(rows), len(rows) - k):
        p = d - x - b * b / p
    return q + p - (d - x)


def _near_level(
    rows: Sequence[Row], tail: Sequence[float], lo: float, hi: float
) -> tuple[float, ...]:
    """Two points 2e-13 relative either side of a level near (lo, hi), or
    none: on the default grid the count changes within 1.7e-13 of the
    secant's root.

    The twisted pivot gamma_k of ``_twisted`` vanishes at each level, and
    about a level it is most nearly linear at the twist row k where
    |gamma_k| is least (Dhillon and Parlett), at or before the Gershgorin
    exit of ``tail``: past the exit the eigenvector does not grow.  It
    decays there by about 1 / (t + sqrt(t^2 - 1)) per row, t = (d - hi) /
    (|b_{k-1}| + |b_k|), and the rows after it has decayed 1e-8 are left
    out.  A secant on gamma_k starts at the mid of (lo, hi) and stops once
    a step is 1e-12 relative; an exact zero pivot, a flat secant or 8
    steps without that propose nothing.
    """
    x = 0.5 * (lo + hi)
    try:
        end = start = bisect_left(tail, hi)
        decay = 1.0
        for d, c, b in islice(rows, start, None):
            t = (d - hi) / (sqrt(c) + b)
            u = t * t - 1.0  # t >= 1 up to rounding
            decay /= t + (sqrt(u) if u > 0.0 else 0.0)
            end += 1
            if decay < 1e-8:
                break
        rows = rows[:end]
        q = p = inf
        forward = [q := d - x - c / q for d, c, _ in rows[: start + 1]]
        backward = [p := d - x - b * b / p for d, _, b in reversed(rows)][::-1]
        gammas = [f + g - (d - x) for f, g, (d, _, _) in zip(forward, backward, rows)]
        k = gammas.index(min(gammas, key=abs))
        y = x + 1e-6 * (hi - lo)
        gx, gy = gammas[k], _twisted(rows, y, k)
        for _ in range(8):
            x, y = y, y - gy * (y - x) / (gy - gx)
            if abs(y - x) <= 1e-12 * abs(y):
                return (y - 2e-13 * abs(y), y + 2e-13 * abs(y))
            gx, gy = gy, _twisted(rows, y, k)
    except ZeroDivisionError:
        pass
    return ()


def _levels(
    rows: Sequence[Row], n_states: int, seeds: Sequence[float] | None = None
) -> list[float]:
    """Lowest n_states eigenvalues by bisection on the count function.

    Each level is bracketed from below by the previous level (or the
    Gershgorin bound) and from above by zero while the count at zero
    confirms that the level is bound, by the Gershgorin bound otherwise,
    so a level that is not bound is still found wherever it lies.  Each
    count stops early on the suffix minima of the rows' Gershgorin lower
    bounds: they do not decrease, so a bisection finds the exit row.  One
    pass over the rows takes the lower and upper bounds d -+ |b_{k-1}| -+
    |b_k| with one square root per row; the least lower bound and the
    greatest upper bound are ``floor`` and ``ceiling``.

    The bisection also keeps a certified bracket (a, b), count(a) <= j <
    count(b), from the counts it takes: a mid at or beyond a or b is
    decided without a count, and only a mid inside is counted.  A seed
    (the same level on a nearby grid) is counted, and so are the two
    points of ``_near_level`` in the window 1e-4 * max(1, |seed|) wide
    beside it on the level's side.  When b - a first is at most 1e-3 *
    max(1, |lo|, |hi|) but still wider than 1e-12 of that, the two points
    of ``_near_level`` inside (a, b) are counted too.  As the count is
    monotone in x, each decision is the one that counting the mid would
    give, so the mids and the level are those of plain bisection, with
    or without seeds: a seed or a proposal changes only the counts.
    """
    lower, upper = [], []
    for d, c, b in rows:
        radius = sqrt(c)
        lower.append(d - radius - b)
        upper.append(d + radius + b)
    tail = list(accumulate(reversed(lower), min))[::-1]
    floor, ceiling = tail[0], max(upper)
    bound = _sturm(rows, 0.0, tail)
    levels: list[float] = []
    for j in range(n_states):
        lo = levels[-1] if levels else floor
        hi = 0.0 if j < bound else ceiling
        a, b, propose = lo, hi, True
        if seeds is not None:
            seed, width = seeds[j], 1e-4 * max(1.0, abs(seeds[j]))
            below = seed >= b or (seed > a and _sturm(rows, seed, tail) > j)
            a, b = (a, min(b, seed)) if below else (max(a, seed), b)
            window = (seed - width, seed) if below else (seed, seed + width)
            for x in _near_level(rows, tail, *window):
                if a < x < b:
                    a, b = (a, x) if _sturm(rows, x, tail) > j else (x, b)
        while hi - lo > 1e-14 * (scale := max(1.0, abs(lo), abs(hi))):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if propose and 1e-12 * scale < b - a <= 1e-3 * scale:
                propose = False
                for x in _near_level(rows, tail, a, b):
                    if a < x < b:
                        a, b = (a, x) if _sturm(rows, x, tail) > j else (x, b)
            if mid <= a:
                lo = mid
            elif mid >= b:
                hi = mid
            elif _sturm(rows, mid, tail) > j:
                hi = b = mid
            else:
                lo = a = mid
        levels.append(0.5 * (lo + hi))
    return levels


def fd_spectrum(params: PhysicalParams, grid: RadialGrid, n_states: int) -> list[float]:
    """Lowest n_states eigenvalues at the angular momentum of ``params``,
    ascending, with self-consistency guards.

    Each level is the Richardson extrapolation of the weighted finite
    volumes on ``grid`` and on its companion with half the cells: with
    s = N_fine / N_coarse, E = E_fine + (E_fine - E_coarse)/(s^2 - 1),
    which removes the second-order error.  Two error terms are bounded,
    both in the energy units of ``params`` (hartree in atomic units), like
    ``FD_TOLERANCE``, and both taken as the largest over the returned levels:

    - cell size: |E_fine - E_coarse| / (s^2 - 1), the error of the
      unextrapolated fine-grid level;
    - outer wall: the rise of the level caused by the zero at R = r_max.
      As dE/dR = -(hbar^2/2m) u'(R)^2 for a normalized u (Hellmann-Feynman)
      and u' decays like exp(-q r), q^2 = -2mE/hbar^2, the shift against
      an infinite box is (hbar^2/2m) u'(R)^2 / (2q), with u'(R) =
      -u(r_{N-1}) / (R - r_{N-1}) from the fine-grid eigenvector.  It runs
      up to about 2x low: the power of r in u slows the decay.

    The origin needs no guard: u = r^(L+1) w there exactly.  The call
    raises ``GridTooCoarse`` when either term exceeds ``FD_TOLERANCE``,
    when a returned level is not bound (box truncation, not physics), when
    the companion grid has fewer unknowns than n_states, and when building
    the rows of either grid overflows or divides by zero.
    """
    if isinstance(n_states, bool) or not isinstance(n_states, int) or n_states < 1:
        raise ValueError("n_states must be an int of at least 1")
    try:
        companion = grid.halved()
    except ValueError as exc:
        raise GridTooCoarse(
            f"grid too small for the half-cell companion check: {exc}"
        ) from exc
    if n_states > companion.cells:
        raise GridTooCoarse(
            f"{n_states} states requested, but the companion grid has only "
            f"{companion.cells} unknowns"
        )
    try:
        coarse_rows = _weighted_coulomb(params, companion)[0]
        rows, slope = _weighted_coulomb(params, grid)
    except ArithmeticError as exc:
        raise GridTooCoarse(
            f"the cells of a grid with r_max={grid.r_max:g} leave the float "
            f"range ({type(exc).__name__}); choose r_max on the scale of the states"
        ) from exc
    coarse = _levels(coarse_rows, n_states)
    fine = _levels(rows, n_states, seeds=coarse)
    s2 = (grid.cells / companion.cells) ** 2
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
    # (hbar^2/2m) u'(R)^2 / (2q) with q = sqrt(-E / (hbar^2/2m))
    kin = params.hbar**2 / (2.0 * params.mass)
    wall_error = max(
        kin * slope * _last_weight(rows, f) / (2.0 * sqrt(-energy / kin))
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


def commutator_check(point: OpPoint, samples: Sequence[tuple[float, float]]) -> complex:
    """Mean of ([r_op, p_op] psi) / (i psi) over the samples, in units of
    hbar (hbar = 1).

    The operators r_op = alpha*r + i*beta*d/dp and
    p_op = gamma*p + i*delta*d/dr act on a Gaussian test state through
    central differences, so the result is a measurement, not algebra; it
    should land on beta*gamma - alpha*delta regardless of the state.
    """
    h = FD_STEP

    def r_op(f: Callable[[float, float], complex]) -> Callable[[float, float], complex]:
        def out(r: float, p: float) -> complex:
            deriv = (f(r, p + h) - f(r, p - h)) / (2.0 * h)
            return point.alpha * r * f(r, p) + 1j * point.beta * deriv

        return out

    def p_op(f: Callable[[float, float], complex]) -> Callable[[float, float], complex]:
        def out(r: float, p: float) -> complex:
            deriv = (f(r + h, p) - f(r - h, p)) / (2.0 * h)
            return point.gamma * p * f(r, p) + 1j * point.delta * deriv

        return out

    rp = r_op(p_op(_gaussian_state))
    pr = p_op(r_op(_gaussian_state))
    values = [
        (rp(r, p) - pr(r, p)) / (1j * _gaussian_state(r, p))
        for r, p in samples
    ]
    n = len(values)  # fsum over n is statistics.fmean, whose import no command needs
    return complex(fsum(v.real for v in values) / n, fsum(v.imag for v in values) / n)
