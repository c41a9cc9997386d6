"""Independent checks: grid eigensolver, Laguerre recurrence, and the
finite-difference commutator probe."""

import math
import random
from itertools import accumulate

import pytest

from phasenu import oracle
from phasenu.errors import GridTooCoarse
from phasenu.hydrogen import PhysicalParams
from phasenu.opspace import OpPoint, commutator_coefficient
from phasenu.oracle import (
    RadialGrid,
    _levels,
    _sturm,
    _tridiag_coulomb,
    commutator_check,
    fd_spectrum,
    laguerre,
)

ATOMIC = PhysicalParams()

COMMUTATOR_SAMPLES = [(r / 2.0, p / 2.0) for r in (-2, 0, 1, 2) for p in (-1, 0, 2)]


class TestRadialGrid:
    def test_spacing(self):
        grid = RadialGrid(2.0, 101)
        assert grid.spacing == pytest.approx(0.02)

    def test_halved_keeps_endpoints(self):
        grid = RadialGrid(100.0, 4001)
        half = grid.halved()
        assert half.r_max == grid.r_max
        assert half.n_points == 2001
        assert half.spacing == pytest.approx(2.0 * grid.spacing)

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

    def test_r_max_must_be_finite(self):
        with pytest.raises(ValueError):
            RadialGrid(math.inf, 4000)
        with pytest.raises(ValueError):
            RadialGrid(math.nan, 4000)


class TestFdSpectrum:
    def test_shallow_levels_in_a_large_box(self):
        """The default grid resolves the L=0 levels to 1e-4 relative.

        The inner wall sits at the origin, where u = r*R vanishes, and
        each level is extrapolated over two grid spacings, so the
        acceptance tolerance of 1e-4 is met on the very grid where a
        Dirichlet wall at r = 1e-3 once shifted the ground level by 4e-3
        relative.
        """
        levels = fd_spectrum(ATOMIC, RadialGrid(100.0, 4000), 2)
        assert levels[0] == pytest.approx(-0.5, rel=1e-4)
        assert levels[1] == pytest.approx(-0.125, rel=1e-4)

    def test_centrifugal_barrier_suppresses_the_wall_shift(self):
        p1 = PhysicalParams(angular_momentum=1)
        levels = fd_spectrum(p1, RadialGrid(100.0, 4000), 1)
        assert levels[0] == pytest.approx(-0.125, rel=1e-4)

    def test_resolving_grid_meets_the_tight_tolerance(self):
        levels = fd_spectrum(ATOMIC, RadialGrid(100.0, 16000), 2)
        assert levels[0] == pytest.approx(-0.5, rel=1e-4)
        assert levels[1] == pytest.approx(-0.125, rel=1e-4)

    def test_levels_ascend(self):
        levels = fd_spectrum(ATOMIC, RadialGrid(100.0, 4000), 3)
        assert levels == sorted(levels)

    def test_box_truncation_detected(self):
        with pytest.raises(GridTooCoarse):
            fd_spectrum(ATOMIC, RadialGrid(5.0, 500), 2)

    def test_coarse_spacing_detected(self):
        with pytest.raises(GridTooCoarse):
            fd_spectrum(ATOMIC, RadialGrid(100.0, 250), 1)

    def test_grid_too_small_for_companion_check(self):
        with pytest.raises(GridTooCoarse):
            fd_spectrum(ATOMIC, RadialGrid(100.0, 150), 1)

    def test_second_order_convergence(self, monkeypatch):
        """Halving the spacing shrinks the three-point ground-state error
        about 4x, and the extrapolated level's error about 16x.

        The Richardson weight in fd_spectrum relies on the raw scheme being
        second order, so both orders are checked on the same two grids.
        """
        coarse = _levels(*_tridiag_coulomb(ATOMIC, RadialGrid(100.0, 1001)), 1)
        fine = _levels(*_tridiag_coulomb(ATOMIC, RadialGrid(100.0, 2001)), 1)
        ratio = (coarse[0] + 0.5) / (fine[0] + 0.5)
        assert 3.5 <= ratio <= 4.5
        monkeypatch.setattr(oracle, "FD_TOLERANCE", 1.0)
        coarse = fd_spectrum(ATOMIC, RadialGrid(100.0, 1001), 1)
        fine = fd_spectrum(ATOMIC, RadialGrid(100.0, 2001), 1)
        ratio = (coarse[0] + 0.5) / (fine[0] + 0.5)
        assert 14.0 <= ratio <= 18.0

    def test_muonic_mass_on_the_default_grid_detected(self):
        """The muonic Bohr radius, 1/186, is about a fifth of the default
        grid's spacing, so the spacing guard refuses it (estimate 4.8)."""
        muonic = PhysicalParams(mass=186.0)
        with pytest.raises(GridTooCoarse, match="discretization error"):
            fd_spectrum(muonic, RadialGrid(100.0, 4000), 1)

    @pytest.mark.parametrize(
        "params, grid",
        [
            # third L=0 level with hbar = 2: 2.4e-4 off in a box 3x larger
            (PhysicalParams(hbar=2.0), RadialGrid(100.0, 4000)),
            # third L=1 level: 5.3e-3 off
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
        assert _sturm([1.0, 1.0], 1.0, 1.0)[0] == 1
        assert _sturm([1.0, 1.0], 1.0, 2.5)[0] == 2
        assert _sturm([1.0, 1.0], 1.0, -0.5)[0] == 0

    def test_seeded_brackets_find_the_unseeded_levels(self):
        diag, kin = _tridiag_coulomb(ATOMIC, RadialGrid(100.0, 1000))
        plain = _levels(diag, kin, 4)
        for shift in (-0.3, 0.0, 1e-9, 0.3, 5.0):
            seeded = _levels(diag, kin, 4, seeds=[e + shift for e in plain])
            assert seeded == pytest.approx(plain, rel=1e-13)

    def test_state_count_validation(self):
        with pytest.raises(ValueError):
            fd_spectrum(ATOMIC, RadialGrid(100.0, 4000), 0)

    @pytest.mark.parametrize(
        "L, want",
        [
            (0, ["-0x1.fffff973095a9p-2", "-0x1.ffffff970a7fep-4", "-0x1.c71c71b4b0667p-5"]),
            (1, ["-0x1.ffffffd5343edp-4", "-0x1.c71c71a446e72p-5", "-0x1.ffffffde979cap-6"]),
            (2, ["-0x1.c71c71c725874p-5", "-0x1.ffffffffd467bp-6", "-0x1.47ae080b0113fp-6"]),
        ],
    )
    def test_levels_keep_their_bits(self, L, want):
        """The early-exit count changes no count, so no level moves."""
        params = PhysicalParams(angular_momentum=L)
        levels = fd_spectrum(params, RadialGrid(100.0, 4000), 3)
        assert [e.hex() for e in levels] == want


def _suffix_minima(rows):
    return list(accumulate(reversed(rows), min))[::-1]


class TestSturmExit:
    """The count stops at the first pivot above b once every later
    diagonal d satisfies d - x >= 2b, and still counts what the full
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
            diag, kin = _tridiag_coulomb(params, grid)
            tail = _suffix_minima(diag)
            xs = [rng.uniform(tail[0] - 2.0 * kin, max(diag) + 2.0 * kin) for _ in range(20)]
            for level in _levels(diag, kin, 3):
                xs += [level + k * math.ulp(level) for k in range(-3, 4)]
                xs += [level * (1.0 + s * e) for s in (-1, 1) for e in (1e-15, 1e-9, 1e-3)]
            for x in xs:
                assert _sturm(diag, kin, x, tail)[0] == _sturm(diag, kin, x)[0]
        for _ in range(100):
            b = rng.uniform(0.01, 10.0)
            diag = [rng.uniform(-20.0, 20.0) for _ in range(rng.randrange(2, 60))]
            tail = _suffix_minima(diag)
            for x in (rng.uniform(-30.0, 30.0) for _ in range(10)):
                assert _sturm(diag, b, x, tail)[0] == _sturm(diag, b, x)[0]

    def test_sweep_stops_before_the_last_row(self):
        class Unread(float):
            def __sub__(self, other):
                raise AssertionError("a row past the exit was read")

        diag, kin = _tridiag_coulomb(ATOMIC, RadialGrid(100.0, 1000))
        rows = diag[:-1] + [Unread(diag[-1])]
        tail = _suffix_minima(rows)
        for x in (-0.6, -0.5, -0.2, -0.1251):
            assert _sturm(rows, kin, x, tail)[0] == _sturm(diag, kin, x)[0]
        with pytest.raises(AssertionError, match="past the exit"):
            _sturm(rows, kin, -0.3)


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
        value = commutator_check(OpPoint(1.0, 0.0, 0.0, -1.0), 1.0, COMMUTATOR_SAMPLES)
        assert value.real == pytest.approx(1.0, abs=1e-6)
        assert value.imag == pytest.approx(0.0, abs=1e-6)

    def test_deep_branch_point(self):
        value = commutator_check(OpPoint(-3.0, 1.0, -2.0, 1.0), 1.0, COMMUTATOR_SAMPLES)
        assert value.real == pytest.approx(1.0, abs=1e-6)

    def test_off_manifold_point(self):
        value = commutator_check(OpPoint(1.0, 0.0, 0.0, -2.0), 1.0, COMMUTATOR_SAMPLES)
        assert value.real == pytest.approx(2.0, abs=1e-6)

    def test_tracks_the_algebraic_coefficient(self):
        rng = random.Random(90210)
        for _ in range(10):
            point = OpPoint(*(rng.uniform(-3.0, 3.0) for _ in range(4)))
            measured = commutator_check(point, 1.0, COMMUTATOR_SAMPLES)
            assert abs(measured - commutator_coefficient(point)) < 1e-6
