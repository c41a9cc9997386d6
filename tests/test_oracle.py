"""Independent checks: grid eigensolver, Laguerre recurrence, and the
finite-difference commutator probe."""

import math
import random
import re
import statistics
from fractions import Fraction
from itertools import accumulate

import pytest

from phasenu import oracle
from phasenu.acceptance import CRITERIA
from phasenu.errors import GridTooCoarse
from phasenu.hydrogen import PhysicalParams
from phasenu.opspace import OpPoint, commutator_coefficient
from phasenu.oracle import (
    DEFAULT_GRID,
    RadialGrid,
    _geometry,
    _last_weight,
    _levels,
    _sturm,
    _weighted_coulomb,
    commutator_check,
    fd_spectrum,
    laguerre,
)

import exact

ATOMIC = PhysicalParams()

COMMUTATOR_SAMPLES = [(r / 2.0, p / 2.0) for r in (-2, 0, 1, 2) for p in (-1, 0, 2)]


class TestRadialGrid:
    def test_cells(self):
        assert RadialGrid(2.0, 101).cells == 100

    def test_halved_keeps_endpoints(self):
        grid = RadialGrid(100.0, 4001)
        half = grid.halved()
        assert half.r_max == grid.r_max
        assert half.n_points == 2001
        assert half.cells == grid.cells // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(0.0, 4000)
        with pytest.raises(ValueError):
            RadialGrid(-1.0, 4000)
        with pytest.raises(ValueError):
            RadialGrid(100.0, 99)
        with pytest.raises(TypeError):  # the old (r_min, r_max, n) form
            RadialGrid(1e-3, 100.0, 4000)

    def test_point_count_must_be_an_int(self):
        with pytest.raises(ValueError, match="int"):
            RadialGrid(100.0, 4000.0)

    def test_point_count_is_bounded(self):
        """One state of fd_spectrum holds about 535 B per point, so 10**8
        points would need about 54 GB before the first level."""
        assert RadialGrid(100.0, oracle.MAX_POINTS).n_points == 100_000
        with pytest.raises(ValueError, match="at most 100,000"):
            RadialGrid(100.0, oracle.MAX_POINTS + 1)

    def test_r_max_must_be_finite(self):
        with pytest.raises(ValueError):
            RadialGrid(math.inf, 4000)
        with pytest.raises(ValueError):
            RadialGrid(math.nan, 4000)


class TestFdSpectrum:
    def test_shallow_levels_in_a_large_box(self):
        """The default grid resolves the L=0 levels to 1e-4 relative.

        u = r*w vanishes at the origin exactly, and each level is
        extrapolated over N and N/2 cells, so the acceptance tolerance of
        1e-4 is met with room to spare; a Dirichlet wall at r = 1e-3 once
        shifted the ground level by 4e-3 relative.
        """
        levels = fd_spectrum(ATOMIC, DEFAULT_GRID, 2)
        assert levels[0] == pytest.approx(-0.5, rel=1e-4)
        assert levels[1] == pytest.approx(-0.125, rel=1e-4)

    @pytest.mark.parametrize("L, bound", [(0, 3e-8), (1, 3e-8), (2, 1.5e-6)])
    def test_default_grid_matches_the_closed_form(self, L, bound):
        """The three lowest levels on the default grid against
        -1/(2(n+L+1)^2).  Measured: 1.27e-8 (L=0), 1.03e-8 (L=1) and
        5.9e-7 (L=2, the third level, at r of about 50, feels the wall).
        The flux taken at r_i instead of r_{i+1/2} cuts cell 0 loose
        (F_0 = 0), which adds a level near -6e4 and moves the others by
        1%, and the call raises."""
        levels = fd_spectrum(PhysicalParams(angular_momentum=L), DEFAULT_GRID, 3)
        for n, energy in enumerate(levels):
            want = -1.0 / (2.0 * (n + L + 1) ** 2)
            assert abs(energy - want) <= bound * abs(want)

    def test_centrifugal_barrier_suppresses_the_wall_shift(self):
        p1 = PhysicalParams(angular_momentum=1)
        levels = fd_spectrum(p1, DEFAULT_GRID, 1)
        assert levels[0] == pytest.approx(-0.125, rel=1e-4)

    def test_resolving_grid_meets_the_tight_tolerance(self):
        levels = fd_spectrum(ATOMIC, RadialGrid(100.0, 16000), 2)
        assert levels[0] == pytest.approx(-0.5, rel=1e-4)
        assert levels[1] == pytest.approx(-0.125, rel=1e-4)

    def test_levels_ascend(self):
        levels = fd_spectrum(ATOMIC, DEFAULT_GRID, 3)
        assert levels == sorted(levels)

    def test_box_truncation_detected(self):
        with pytest.raises(GridTooCoarse):
            fd_spectrum(ATOMIC, RadialGrid(5.0, 500), 2)

    def test_coarse_spacing_detected(self):
        # estimate 2.1e-4
        with pytest.raises(GridTooCoarse, match="discretization error"):
            fd_spectrum(ATOMIC, RadialGrid(100.0, 200), 1)

    def test_grid_too_small_for_companion_check(self):
        with pytest.raises(GridTooCoarse):
            fd_spectrum(ATOMIC, RadialGrid(100.0, 150), 1)

    def test_second_order_convergence(self, monkeypatch):
        """Doubling the cells shrinks the weighted ground-state error
        about 4x, and the extrapolated level's error about 16x.

        The Richardson weight in fd_spectrum relies on the raw scheme being
        second order, so both orders are checked on the same two grids.
        """
        coarse = _levels(_weighted_coulomb(ATOMIC, RadialGrid(100.0, 1001))[0], 1)
        fine = _levels(_weighted_coulomb(ATOMIC, RadialGrid(100.0, 2001))[0], 1)
        ratio = (coarse[0] + 0.5) / (fine[0] + 0.5)
        assert 3.5 <= ratio <= 4.5
        monkeypatch.setattr(oracle, "FD_TOLERANCE", 1.0)
        coarse = fd_spectrum(ATOMIC, RadialGrid(100.0, 1001), 1)
        fine = fd_spectrum(ATOMIC, RadialGrid(100.0, 2001), 1)
        ratio = (coarse[0] + 0.5) / (fine[0] + 0.5)
        assert 14.0 <= ratio <= 18.0

    @pytest.mark.parametrize("n_points", [1000, 4000])
    def test_muonic_mass_detected(self, n_points):
        """The muonic ground level, -93 hartree, has its Bohr radius 1/186
        inside the first 29 of 3,999 cells, so the spacing guard refuses
        it in hartree (estimate 1.8e-2 at 4,000 points, 0.31 at 1,000)."""
        muonic = PhysicalParams(mass=186.0)
        with pytest.raises(GridTooCoarse, match="discretization error"):
            fd_spectrum(muonic, RadialGrid(100.0, n_points), 1)

    @pytest.mark.parametrize(
        "params, grid",
        [
            # third L=0 level with hbar = 2: 2.4e-4 off in a box 3x larger,
            # estimate 1.36e-4
            (PhysicalParams(hbar=2.0), RadialGrid(100.0, 4000)),
            # third L=1 level: 5.3e-3 off, estimate 2.46e-3
            (PhysicalParams(angular_momentum=1), RadialGrid(30.0, 1000)),
            # third L=2 level: 2.2e-4 off, estimate 1.07e-4
            (PhysicalParams(angular_momentum=2), RadialGrid(60.0, 4000)),
        ],
        ids=["hbar2-L0", "L1-box30", "L2-box60"],
    )
    def test_outer_wall_error_detected(self, params, grid):
        """A level that stays bound but feels the wall at r_max is refused."""
        with pytest.raises(GridTooCoarse, match="outer-wall"):
            fd_spectrum(params, grid, 3)

    def test_count_survives_an_exact_zero_pivot(self):
        # [[1, -1], [-1, 1]] has eigenvalues 0 and 2; at x = 1 the first
        # pivot is exactly zero
        rows = _rows([1.0, 1.0], [1.0])
        tail = _suffix_minima(rows)
        assert _sturm(rows, 1.0, tail) == 1
        assert _sturm(rows, 2.5, tail) == 2
        assert _sturm(rows, -0.5, tail) == 0

    def test_count_ends_at_a_zero_pivot_at_zero(self):
        """At x = 0 the leading block [[4, 2], [2, 1]] is singular.  A retry
        at nextafter(0, inf) = 5e-324 moved no d - x, so the bound count of
        ``_levels`` recursed until RecursionError.  The count is the one
        just above x, monotone in x, and each level lies where the exact
        count steps."""
        rows = _rows([4.0, 1.0, 2.0, 5.0, -2.0, 3.0], [2.0, 1.0, 2.0, 1.0, 1.0])
        tiny = Fraction(1, 10**30)
        tail = _suffix_minima(rows)
        counts = [_sturm(rows, x, tail) for x in (-5e-324, 0.0, 5e-324)]
        assert counts == [exact.levels_below(rows, x) for x in (-tiny, tiny, tiny)]
        for j, level in enumerate(_levels(rows, 6)):
            step = Fraction(1e-12 * max(1.0, abs(level)))
            below, above = (exact.levels_below(rows, level + s) for s in (-step, step))
            assert below <= j < above

    def test_seeded_brackets_find_the_unseeded_levels(self):
        """A seed is counted and proposes points, so it narrows the one
        bracket of plain bisection and changes no bit: also a seed above
        zero, outside the bracket, and a level exactly on a Gershgorin
        bound of a decoupled row."""
        rows = _weighted_coulomb(ATOMIC, DEFAULT_GRID)[0]
        plain = _levels(rows, 4)
        for shift in (-0.3, 0.0, 1e-9, 0.3, 5.0):
            assert _levels(rows, 4, seeds=[e + shift for e in plain]) == plain
        rows = _rows([0.0, 5.0], [0.0])
        assert _levels(rows, 2, seeds=[0.5, 4.0]) == _levels(rows, 2)

    def test_state_count_validation(self):
        with pytest.raises(ValueError):
            fd_spectrum(ATOMIC, DEFAULT_GRID, 0)

    @pytest.mark.parametrize("n_states", [2.5, "3", True], ids=["float", "str", "bool"])
    def test_state_count_must_be_an_int(self, n_states):
        """A float or a string once raised a bare TypeError from inside the
        search, and True was taken as one state."""
        with pytest.raises(ValueError, match="n_states must be an int of at least 1"):
            fd_spectrum(ATOMIC, DEFAULT_GRID, n_states)

    def test_more_states_than_unknowns_detected(self):
        with pytest.raises(GridTooCoarse, match="500 states requested.* 499 unknowns"):
            fd_spectrum(ATOMIC, DEFAULT_GRID, 500)

    @pytest.mark.parametrize(
        "grid",
        [RadialGrid(1e300, 1000), RadialGrid(1e-150, 1000), RadialGrid(1e-300, 1000),
         RadialGrid(1e200, 100000)],
        ids=["1e300", "1e-150", "1e-300", "1e200-100000"],
    )
    def test_grid_beyond_the_float_range_is_refused_by_name(self, grid):
        """A cell width whose square overflows, or underflows to zero,
        once escaped as OverflowError or ZeroDivisionError."""
        name = re.escape(f"r_max={grid.r_max:g} leave the float range")
        with pytest.raises(GridTooCoarse, match=name):
            fd_spectrum(ATOMIC, grid, 1)

    @pytest.mark.parametrize(
        "L, want",
        [
            (0, ["-0x1.ffffffcff98eep-2", "-0x1.ffffffa8594cdp-4", "-0x1.c71c7165cffa8p-5"]),
            (1, ["-0x1.ffffffd6f138cp-4", "-0x1.c71c718a0507bp-5", "-0x1.ffffffa786007p-6"]),
            (2, ["-0x1.c71c71a37205fp-5", "-0x1.ffffffc35d242p-6", "-0x1.47ae07d9ed883p-6"]),
        ],
    )
    def test_levels_keep_their_bits(self, L, want, monkeypatch):
        """The levels of plain bisection on both grids, whatever the seeds;
        the early-exit count changes no count, so no level moves: full
        sweeps give the same bits."""
        params = PhysicalParams(angular_momentum=L)
        levels = fd_spectrum(params, DEFAULT_GRID, 3)
        assert [e.hex() for e in levels] == want
        full = oracle._sturm
        monkeypatch.setattr(oracle, "_sturm", lambda rows, x, tail: full(rows, x, _no_exit(rows)))
        assert fd_spectrum(params, DEFAULT_GRID, 3) == levels


def _rows(diag, off):
    """Rows (d_k, b_{k-1}^2, |b_k|) of the matrix with diagonal ``diag``
    and off-diagonals ``off``."""
    return list(zip(diag, [0.0] + [b * b for b in off], [abs(b) for b in off] + [0.0]))


def _suffix_minima(rows):
    return list(accumulate((d - c**0.5 - b for d, c, b in reversed(rows)), min))[::-1]


def _pivots(rows, x, number):
    """Every pivot of T - x under the zero-pivot rule, in ``number``
    arithmetic; inf after an exact zero."""
    q, out = math.inf, []
    for d, c, _ in rows:
        d, c = number(d), number(c)
        if q == 0:
            q = math.inf if c else d - x
        else:
            q = d - x - (0 if q == math.inf else c / q)
        out.append(q)
    return out


def _no_exit(rows):
    """A tail under which ``_sturm`` sweeps every row."""
    return [-math.inf] * len(rows)


class TestSturmExit:
    """The count stops at the first pivot q_k > |b_k| once every later row
    satisfies d - x > |b_{k-1}| + |b_k|, and still counts what the full
    sweep counts."""

    def test_early_and_full_counts_agree(self):
        rng = random.Random(2718)
        cases = [
            (ATOMIC, RadialGrid(100.0, 1000)),
            (PhysicalParams(angular_momentum=2), RadialGrid(60.0, 800)),
            (PhysicalParams(mass=2.5, hbar=1.7, angular_momentum=1), RadialGrid(50.0, 600)),
            (PhysicalParams(mass=186.0, angular_momentum=3), RadialGrid(1.0, 500)),
        ]
        for params, grid in cases:
            rows = _weighted_coulomb(params, grid)[0]
            tail = _suffix_minima(rows)
            top = max(d + c**0.5 + b for d, c, b in rows)
            xs = [rng.uniform(tail[0], top) for _ in range(20)]
            for level in _levels(rows, 3):
                xs += [level + k * math.ulp(level) for k in range(-3, 4)]
                xs += [level * (1.0 + s * e) for s in (-1, 1) for e in (1e-15, 1e-9, 1e-3)]
            for x in xs:
                assert _sturm(rows, x, tail) == _sturm(rows, x, _no_exit(rows))
        for _ in range(100):
            size = rng.randrange(2, 60)
            diag = [rng.uniform(-20.0, 20.0) for _ in range(size)]
            rows = _rows(diag, [rng.uniform(-10.0, 10.0) for _ in range(size - 1)])
            tail = _suffix_minima(rows)
            for x in (rng.uniform(-30.0, 30.0) for _ in range(10)):
                assert _sturm(rows, x, tail) == _sturm(rows, x, _no_exit(rows))

    def test_sweep_stops_before_the_last_row(self):
        class Unread(float):
            def __sub__(self, other):
                raise AssertionError("a row past the exit was read")

        rows = _weighted_coulomb(ATOMIC, DEFAULT_GRID)[0]
        d, c, b = rows[-1]
        unread = rows[:-1] + [(Unread(d), c, b)]
        tail = _suffix_minima(rows)
        for x in (-0.6, -0.5, -0.2, -0.1251):
            assert _sturm(unread, x, tail) == _sturm(rows, x, _no_exit(rows))
        with pytest.raises(AssertionError, match="past the exit"):
            _sturm(unread, -0.3, _no_exit(rows))


class TestZeroPivot:
    """An exact zero pivot counts on every row, so the count is the one
    just above x, also where x is an eigenvalue of T."""

    def test_a_zero_pivot_counts_on_every_row(self):
        # diag(1, 0) and diag(0, 1) both have the spectrum {0, 1}; the
        # zero pivot at x = 0 falls on the last row and on the first
        # (a coupled first row: test_count_survives_an_exact_zero_pivot)
        for rows in (_rows([1.0, 0.0], [0.0]), _rows([0.0, 1.0], [0.0])):
            assert _sturm(rows, 0.0, _suffix_minima(rows)) == 1

    def test_count_is_the_one_just_above_x(self):
        """Small integer tridiagonals at dyadic x, wherever the float sweep
        meets an exact zero pivot and every float pivot is the exact one
        (a pivot that rounds to 4e-16 instead of 0 is another matter)."""
        rng = random.Random(7)
        probes = [k / 8 for k in range(-32, 49)]
        checked = 0
        for _ in range(1500):
            size = rng.randrange(1, 7)
            rows = _rows(
                [float(rng.randint(-3, 5)) for _ in range(size)],
                [float(rng.randint(0, 2)) for _ in range(size - 1)],
            )
            tail = _suffix_minima(rows)
            for x in probes:
                pivots = _pivots(rows, x, float)
                if 0.0 in pivots and pivots == _pivots(rows, Fraction(x), Fraction):
                    above = exact.levels_below(rows, Fraction(x) + Fraction(1, 10**40))
                    assert _sturm(rows, x, tail) == above, (rows, x)
                    checked += 1
        assert checked > 1000


#: fd_spectrum cases whose levels must not depend on the proposed points
BRACKET_CASES = [
    (ATOMIC, DEFAULT_GRID, 3),
    (PhysicalParams(angular_momentum=1), RadialGrid(60.0, 800), 3),
    (PhysicalParams(mass=2.5, hbar=1.7, angular_momentum=2), RadialGrid(150.0, 1500), 2),
    (PhysicalParams(coulomb_constant=2.0, charge_squared=0.75), RadialGrid(40.0, 600), 4),
]


def _all_levels(rng_seed):
    """Every fd_spectrum case of BRACKET_CASES, then _levels on 100 random
    tridiagonals, one in ten couplings zero, each seeded from points drawn
    near its levels with the same bits as unseeded."""
    out = [fd_spectrum(*case) for case in BRACKET_CASES]
    rng = random.Random(rng_seed)
    for _ in range(100):
        size = rng.randrange(2, 40)
        diag = [rng.uniform(-20.0, 20.0) for _ in range(size)]
        off = [rng.uniform(-10.0, 10.0) if rng.random() < 0.9 else 0.0 for _ in range(size - 1)]
        rows = _rows(diag, off)
        n = rng.randrange(1, min(size, 5) + 1)
        plain = _levels(rows, n)
        seeded = _levels(rows, n, sorted(e + rng.uniform(-1.0, 1.0) for e in plain))
        assert seeded == plain
        out.append(plain)
    return out


class TestCertifiedBracket:
    """The bisection decides a mid without a count when a counted point
    lies beyond it, and counts two proposed points once the bracket is
    narrow.  The count is monotone in x, so every level has the bits of
    plain bisection, whatever is proposed."""

    @pytest.fixture(scope="class")
    def plain(self):
        # with no point proposed, _levels is plain bisection
        with pytest.MonkeyPatch.context() as m:
            m.setattr(oracle, "_near_level", lambda rows, tail, lo, hi: ())
            return _all_levels(1618)

    def test_levels_do_not_depend_on_the_proposal(self, plain):
        assert _all_levels(1618) == plain

    def test_wrong_proposals_keep_the_bits(self, plain, monkeypatch):
        rng = random.Random(31)
        true = oracle._near_level

        def anywhere(rows, tail, lo, hi):
            # inside the bracket, or up to its width beyond either end
            return tuple(rng.uniform(2.0 * lo - hi, 2.0 * hi - lo) for _ in range(2))

        def shifted(by):
            return lambda *args: tuple(x + by * abs(x) for x in true(*args))

        below, above = shifted(-1e-9), shifted(1e-9)
        for liar in (anywhere, below, above):
            monkeypatch.setattr(oracle, "_near_level", liar)
            assert _all_levels(1618) == plain

    def test_proposal_at_a_gershgorin_bound(self):
        # t = (d - hi) / (|b_{k-1}| + |b_k|) rounds to 1 - 3.6e-15 with hi
        # on the bound 5.3 - 0.1, where sqrt(t^2 - 1) would raise
        rows = _rows([5.3, 5.3], [0.1])
        points = oracle._near_level(rows, _suffix_minima(rows), 5.0, 5.2)
        assert points == pytest.approx([5.2, 5.2], rel=1e-12)

    @pytest.mark.parametrize("L, sweeps", [(0, 85), (1, 52)])
    def test_sweep_count(self, L, sweeps, monkeypatch):
        """Counts taken by the configuration-limit call; plain bisection
        takes 316 and 266.  The six wall-guard sweeps are not counts.  A
        change that keeps the bits but gives back the speed moves these
        numbers."""
        calls = []
        count = oracle._sturm
        monkeypatch.setattr(oracle, "_sturm", lambda *args: calls.append(1) or count(*args))
        fd_spectrum(PhysicalParams(angular_momentum=L), DEFAULT_GRID, 3)
        assert len(calls) == sweeps


class TestOnePass:
    """Work that ``fd_spectrum`` once did twice is done once, with the
    same bits."""

    @staticmethod
    def two_sweeps(rows, level):
        gap = 1e-8 * max(1.0, abs(level))
        below, above = (_pivots(rows, level + s, float)[-1] for s in (-gap, gap))
        return 0.5 * gap * (1.0 / below - 1.0 / above)

    @pytest.mark.parametrize("case", BRACKET_CASES, ids=["L0", "L1", "L2-units", "coulomb"])
    def test_last_weight_is_two_sweeps_in_one(self, case, monkeypatch):
        """At every level the wall guard weighs, one fused sweep gives the
        bits of two sweeps."""
        seen = []
        fused = oracle._last_weight
        monkeypatch.setattr(oracle, "_last_weight", lambda *args: seen.append(args) or fused(*args))
        fd_spectrum(*case)
        assert len(seen) == case[2]
        for rows, level in seen:
            assert _last_weight(rows, level).hex() == self.two_sweeps(rows, level).hex()

    def test_last_weight_at_a_zero_pivot(self, monkeypatch):
        # the first pivot a gap below the level is exactly zero, and the
        # fused sweep takes it as ``_sturm`` does, without a count
        level = 1.0
        rows = _rows([level - 1e-8, 3.0, 2.0], [1.0, 0.5])
        want = self.two_sweeps(rows, level)
        calls = []
        count = oracle._sturm
        monkeypatch.setattr(oracle, "_sturm", lambda *args: calls.append(1) or count(*args))
        assert _last_weight(rows, level).hex() == want.hex()
        assert not calls

    def test_each_grid_geometry_is_built_once(self):
        """configuration-limit's two ``fd_spectrum`` calls share the fine
        grid's geometry and the companion's, which no caller can change."""
        _geometry.cache_clear()
        CRITERIA["configuration-limit"]()
        info = _geometry.cache_info()
        assert (info.misses, info.hits) == (2, 2)
        assert all(isinstance(part, tuple) for part in _geometry(DEFAULT_GRID))


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, 0.7, 3.4) == 1.0

    def test_degree_one(self):
        assert laguerre(1, 1.0 / 3.0, 2.0) == pytest.approx(-2.0 / 3.0)

    def test_degree_two(self):
        assert laguerre(2, 0.0, 1.0) == pytest.approx(-0.5)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)

    def test_matches_explicit_summation(self):
        rng = random.Random(61521)
        for _ in range(60):
            n = rng.randrange(9)
            a = rng.uniform(-0.9, 3.0)
            x = rng.uniform(-20.0, 20.0)
            direct = sum(
                (-1) ** k
                * math.gamma(n + a + 1)
                / (math.gamma(a + k + 1) * math.factorial(n - k))
                * x**k
                / math.factorial(k)
                for k in range(n + 1)
            )
            got = laguerre(n, a, x)
            assert got == pytest.approx(direct, rel=1e-10, abs=1e-10)


class TestCommutatorCheck:
    def test_configuration_point(self):
        value = commutator_check(OpPoint(1.0, 0.0, 0.0, -1.0), COMMUTATOR_SAMPLES)
        assert value.real == pytest.approx(1.0, abs=1e-6)
        assert value.imag == pytest.approx(0.0, abs=1e-6)

    def test_deep_branch_point(self):
        value = commutator_check(OpPoint(-3.0, 1.0, -2.0, 1.0), COMMUTATOR_SAMPLES)
        assert value.real == pytest.approx(1.0, abs=1e-6)

    def test_off_manifold_point(self):
        value = commutator_check(OpPoint(1.0, 0.0, 0.0, -2.0), COMMUTATOR_SAMPLES)
        assert value.real == pytest.approx(2.0, abs=1e-6)

    def test_mean_has_the_bits_of_statistics_fmean(self, monkeypatch):
        """The mean is fsum over the count, which is what statistics.fmean
        computes; on the samples of each point both give the same bits."""
        sums = []

        def spy(values):
            sums.append(list(values))
            return math.fsum(sums[-1])

        monkeypatch.setattr(oracle, "fsum", spy)
        rng = random.Random(5)
        for _ in range(20):
            sums.clear()
            point = OpPoint(*(rng.uniform(-3.0, 3.0) for _ in range(4)))
            value = commutator_check(point, COMMUTATOR_SAMPLES)
            real, imag = sums
            assert value.real.hex() == statistics.fmean(real).hex()
            assert value.imag.hex() == statistics.fmean(imag).hex()

    def test_tracks_the_algebraic_coefficient(self):
        rng = random.Random(90210)
        for _ in range(10):
            point = OpPoint(*(rng.uniform(-3.0, 3.0) for _ in range(4)))
            measured = commutator_check(point, COMMUTATOR_SAMPLES)
            assert abs(measured - commutator_coefficient(point)) < 1e-6
