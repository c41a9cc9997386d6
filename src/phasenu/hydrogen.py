"""Hydrogen bound states in a transformed phase-space variable.

The radial Coulomb problem, written in the collective variable
``A = alpha*r + i*hbar*beta*pbar``, becomes hypergeometric-type with

    sigma(A) = -alphadelta * A,  tau_tilde = 2,
    sigma_tilde(A) = -omega + zeta*A - kappa*A**2,

where omega = L(L+1), zeta = 2 e^2 k m / hbar^2, and kappa = -2 m E / hbar^2
carries the energy.  The constant K of the NU pipeline makes the
radical a perfect square for any c = -alphadelta > 0, and the levels are
kappa = zeta^2 / (4 d^2) with

    d(n, L) = [c (2n + 1) + sqrt((c - 2)^2 + 4 L(L+1))] / 2.

Only (alphadelta + 2)^2 = 1, i.e. alphadelta in {-1, -3}, makes d an
integer for every L: the -1 branch reproduces the standard spectrum with
d = n + L + 1, the -3 branch yields the deeper d = L + 3n + 2 family.
These two are the products solved here.  Everything goes through
``nu``, the NU solver of this equation for any c > 0 (kappa as the root
of lambda = lambda_n in sqrt(kappa)); closed forms only cross-check.

The state is Psi = e psi(A), e = exp(i (gamma/delta) p r / hbar) the
prefactor; as dA/dr = alpha, gamma p Psi + i hbar delta dPsi/dr =
-i hbar c e psi'(A) with c = -alphadelta: p_op acts as -i hbar c d/dA.
As dA/dp = i hbar beta, alpha r Psi + i hbar beta dPsi/dp = (-r/delta) Psi
- hbar^2 beta^2 e psi'(A): r_op acts as multiplication by A only where
beta = 0, where -1/delta = alpha; on the -3 label beta is never 0.
"""

from __future__ import annotations

import math
import random
import sys
from numbers import Real
from typing import Callable, NamedTuple

from . import nu
from .errors import LevelTooHigh, UnsupportedBranch, UnsupportedRecovery
from .numeric import ExpPowerTerm
from .opspace import MANIFOLD_TOL, OpPoint, is_on_manifold


class PhysicalParams(NamedTuple("PhysicalParams", [
    ("mass", float), ("hbar", float), ("coulomb_constant", float), ("charge_squared", float),
    ("angular_momentum", int),
])):
    """Physical constants plus the angular momentum quantum number.

    Defaults are atomic units (mass = hbar = coulomb_constant =
    charge_squared = 1), in which the configuration-space ground state
    sits at -0.5.
    """

    __slots__ = ()

    def __new__(
        cls,
        mass: float = 1.0,
        hbar: float = 1.0,
        coulomb_constant: float = 1.0,
        charge_squared: float = 1.0,
        angular_momentum: int = 0,
    ) -> PhysicalParams:
        self = tuple.__new__(cls, (mass, hbar, coulomb_constant, charge_squared, angular_momentum))
        for name, value in zip(self._fields[:4], self):
            if isinstance(value, Real) and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive")
            nu._finite_real(name, value)  # names a non-number, or one beyond the float range
        L = angular_momentum
        if not isinstance(L, int) or type(L) is bool or L < 0:
            raise ValueError("angular_momentum must be a non-negative integer")
        if L * (L + 1) > sys.float_info.max:  # not printed: L may pass the int-to-str limit
            raise ValueError("angular_momentum is too large: L(L+1) is beyond the float range")
        if not 0.0 < self.zeta < math.inf:
            raise ValueError(
                f"zeta = 2 e2 k m / hbar^2 must be finite and positive, got {self.zeta!r}"
            )
        return self

    @property
    def omega(self) -> float:
        """L(L+1), minus the constant term of sigma_tilde."""
        L = self.angular_momentum
        return float(L * (L + 1))

    @property
    def zeta(self) -> float:
        """2 e^2 k m / hbar^2, the linear coefficient of sigma_tilde; inf
        when hbar^2 underflows to zero."""
        hbar2 = self.hbar * self.hbar
        num = 2.0 * self.charge_squared * self.coulomb_constant * self.mass
        return num / hbar2 if hbar2 else math.inf

    def energy_of_kappa(self, kappa: float) -> float:
        """E from kappa = -2 m E / hbar^2."""
        return -self.hbar**2 * kappa / (2.0 * self.mass)


#: Configuration space: beta = gamma = 0, A degenerates to r.
CONFIG_SPACE_POINT = OpPoint(1.0, 0.0, 0.0, -1.0)

#: The worked deep-branch point with alphadelta = -3.
DEEP_BRANCH_POINT = OpPoint(-3.0, 1.0, -2.0, 1.0)


#: Each solvable alphadelta and its canonical point: the roots of
#: (alphadelta + 2)^2 = 1, the only products for which (alphadelta + 2)^2 +
#: 4*omega equals (2L+1)^2 at every integer L, so that the closed-form
#: denominator d(n, L; c) is an integer; the solver itself would take any
#: product, and branch_of refuses the others.
BRANCHES: dict[float, OpPoint] = {-1.0: CONFIG_SPACE_POINT, -3.0: DEEP_BRANCH_POINT}


def branch_of(alphadelta: float) -> float:
    """The label in BRANCHES within MANIFOLD_TOL relative of alphadelta."""
    for label in BRANCHES:
        if abs(alphadelta - label) <= MANIFOLD_TOL * abs(label):
            return label
    supported = ", ".join(f"{label:g}" for label in BRANCHES)
    raise UnsupportedBranch(
        f"no solvable branch at alphadelta={alphadelta}; supported: {supported}"
    )


def build_radial_family(params: PhysicalParams, alphadelta: float) -> nu.NuProblem:
    """The transformed radial equation at kappa = 0 on the branch of
    alphadelta, which ``nu`` quantizes in kappa; the one place a branch
    label is resolved for the solver, so an unsupported product raises
    UnsupportedBranch."""
    label = branch_of(alphadelta)
    return nu.NuProblem(-label, (-params.omega, params.zeta))


def closed_form_energy(params: PhysicalParams, n: int, alphadelta: float) -> float:
    """Reference spectrum, used only to cross-check the NU solver:
    E_n = -e^4 k^2 m / (2 hbar^2 d^2) with d = d(n, L; c), c = -alphadelta,
    which is n + L + 1 and L + 3n + 2 exactly on the two branches."""
    if n < 0:
        raise ValueError("n must be non-negative")
    c = -branch_of(alphadelta)
    d = (c * (2 * n + 1) + math.sqrt((c - 2.0) ** 2 + 4.0 * params.omega)) / 2.0
    num = params.charge_squared**2 * params.coulomb_constant**2 * params.mass
    return -num / (2.0 * params.hbar**2 * d * d)


def solve_energy(params: PhysicalParams, n: int, alphadelta: float) -> float:
    """Energy from the NU pipeline, no closed form consulted."""
    return params.energy_of_kappa(nu.solve_state(build_radial_family(params, alphadelta), n).kappa)


def check_point(point: OpPoint, alphadelta: float) -> None:
    """Refuse a point off the manifold, or one whose alpha*delta is not
    alphadelta (the branch label the radial family depends on)."""
    if not is_on_manifold(point):
        raise ValueError(f"point {tuple(point)} violates the commutator constraint")
    product = point.alpha * point.delta
    if not abs(product - alphadelta) <= MANIFOLD_TOL * max(1.0, abs(product)):
        raise ValueError(
            f"alphadelta={alphadelta} does not match the point product {product}"
        )


def canonical_config(alphadelta: float) -> OpPoint:
    """Default representative point of the branch at alphadelta."""
    return BRANCHES[branch_of(alphadelta)]


class WavefunctionForm(NamedTuple):
    """Assembled eigenstate: a manifold point, the state solved on its
    branch, its body psi = phi * y as one term in A = alpha*r +
    i*hbar*beta*pbar, and ``psi``, that body bound to the point's slice.

    ``prefactor_rate`` is gamma/delta, the coefficient of i*p*r/hbar in the
    prefactor exponent.  The prefactor lives in the untransformed momentum
    and is never folded into numerical evaluation of the body.
    """

    point: OpPoint
    state: nu.NuState
    body: ExpPowerTerm
    psi: Callable[[float, complex, float], complex]

    @property
    def prefactor_rate(self) -> complex:
        return complex(self.point.gamma / self.point.delta)

    @property
    def kappa(self) -> float:
        return self.state.kappa

    @property
    def config(self) -> WavefunctionForm:
        """The record itself, so that ``wf.config.point`` still reads the
        point; it goes with the benchmark change of ROADMAP item 1, which
        turns that read in ``perfbench/workloads.py`` into ``wf.point``."""
        return self


def assemble_wavefunction(
    params: PhysicalParams, point: OpPoint, n: int
) -> WavefunctionForm:
    """Quantize level n on the branch of the point's alpha*delta, build
    phi*y in A and bind it to the point's slice; a point off the manifold
    raises ValueError."""
    alphadelta = point.alpha * point.delta
    check_point(point, alphadelta)
    state = nu.solve_state(build_radial_family(params, alphadelta), n)
    body = ExpPowerTerm(nu.rodrigues_y(state.branch, n), *state.branch._factor)
    return WavefunctionForm(point, state, body, body.along(point.alpha, point.beta))


def eval_wavefunction(wf: WavefunctionForm, r: float, pbar: complex, hbar: float) -> complex:
    """Body value at A = alpha*r + i*hbar*beta*pbar (prefactor excluded)."""
    return wf.psi(r, pbar, hbar)


def _fractions() -> tuple[float, ...]:
    rng = random.Random(20260822)
    return tuple(rng.uniform(0.01, 1.0) for _ in range(64))


#: Sample fractions of the residual check: 64 seeded u in [0.01, 1], each
#: mapped per state to x = u * (4n + 2|b| + 10) on the support of its
#: Laguerre factor.
SAMPLE_FRACTIONS = _fractions()

#: The highest level whose residual is computed: its recurrence takes n steps
#: at each sample, about 1 s at n = 10**5 (Python 3.11, 2 shared CPUs), and
#: holds n step tuples, which at n = 10**12 run out of memory.
RESIDUAL_MAX_N = 100_000


def check_residual_level(n: int) -> None:
    if n > RESIDUAL_MAX_N:
        raise LevelTooHigh(f"the residual is computed up to n={RESIDUAL_MAX_N}, not n={n}")


def _laguerre_steps(n: int, beta: float) -> list[tuple]:
    """Per-k constants (p_k, q_k, r_k) of the forward recurrence
    (k+1) L_{k+1} = (2k + 1 + beta - x) L_k - (k + beta) L_{k-1}, k < n,
    written L_{k+1} = (p_k - q_k x) L_k - r_k L_{k-1}."""
    return [((2 * k + 1 + beta) / (k + 1), 1.0 / (k + 1), (k + beta) / (k + 1)) for k in range(n)]


def _laguerre_pair(steps: list[tuple], x: float) -> tuple:
    """(L_{n-1}, L_n) of order beta at x, from ``_laguerre_steps(n, beta)``,
    scaled by 2**-600, an exact power of two, whenever L_k leaves
    (-2**600, 2**600); L_{-1} = 0.  ``ode_residual`` runs the plain pass
    itself and calls this only where that pass leaves the range."""
    l1, l0 = 0.0, 1.0
    for p_k, q_k, r_k in steps:
        l1, l0 = l0, (p_k - q_k * x) * l0 - r_k * l1
        if not -2.0**600 < l0 < 2.0**600:
            l1, l0 = l1 * 2.0**-600, l0 * 2.0**-600
    return l1, l0


def _sample_points(n: int, b: float) -> list[float]:
    """The residual's samples x = u (4n + 2|b| + 10), one per fraction u of
    ``SAMPLE_FRACTIONS``."""
    span = 4 * n + 2 * abs(b) + 10
    return [u * span for u in SAMPLE_FRACTIONS]


def ode_residual(state: nu.NuState) -> float:
    """Worst relative defect of the state's own equation where it lives.

    With sigma = c A and rho = e^{aA} A^b, the branch's weight, the
    Rodrigues polynomial is y_n(A) = c^n n! L_n^(b)(-aA).  Each fraction u
    of ``SAMPLE_FRACTIONS`` gives a sample x = u (4n + 2|b| + 10)
    (``_sample_points``), A = x / (-a), on the real support of the
    Laguerre factor, among its nodes and into its decay, at every mass;
    as u >= 0.01 and a < 0, A > 0, so sigma never vanishes there.  The
    equation is analytic in A, so an identity that holds on a real
    interval holds everywhere.

    phi is divided out analytically: with g = pi / sigma, psi'/phi =
    y' + g y and psi''/phi = y'' + 2 g y' + (g' + g^2) y.  The defect is
    |T1 + T2 + T3| / (|T1| + |T2| + |T3|) over the terms psi'',
    (2 / sigma) psi' and (sigma_tilde / sigma^2) psi, each times
    sigma^2 / (phi c^n n!): polynomials in A, with no exponential and no
    power to overflow.  y, y' and y'' come from one recurrence in
    beta = b + 1 (``_laguerre_steps``), by L_n^(b) = L_n^(beta) -
    L_{n-1}^(beta), L_n^(b)' = -L_{n-1}^(beta) and x L_{n-1}^(beta)' =
    (n-1) L_{n-1}^(beta) - (n-1+beta) L_{n-2}^(beta), with L_{n-2} taken
    from the recurrence; never from the equation under test.  The 64
    samples run its plain pass in this one frame; a sample whose L_n
    leaves (-2**600, 2**600) runs ``_laguerre_pair``'s scaled pass too,
    and so, without the plain pass, does every later sample at or beyond
    ``bound``, the smallest such x.  The scaled pass equals the plain
    pass until it scales, and the defect is homogeneous in the pair, so
    the power of two by which that pass shrinks it drops out, bit for bit.

    A state assembled at a detuned kappa (``nu.assemble``) carries the
    equation at that kappa, whose branch has lambda != lambda_n, so its
    defect is large.  A non-finite defect reads inf, and a level above
    ``RESIDUAL_MAX_N`` raises :class:`LevelTooHigh` before any allocation.
    """
    n, branch = state.n, state.branch
    check_residual_level(n)
    c, pi0, pi1 = branch.c, branch.pi0, branch.pi1
    a, b = branch._weight
    s0, s1 = state.family.sigma_tilde
    s2 = -state.kappa
    steps = _laguerre_steps(n, b + 1.0)
    ca, c_pi0, n_beta, neg_a, n_f = c * a, c * pi0, n + b + 1.0, -a, float(n)
    worst, bound = 0.0, math.inf
    for x in _sample_points(n, b):
        A = x / neg_a
        if x < bound:
            l1, l0 = 0.0, 1.0
            for p_k, q_k, r_k in steps:
                l1, l0 = l0, (p_k - q_k * x) * l0 - r_k * l1
            if not -2.0**600 < l0 < 2.0**600:
                bound = x
                l1, l0 = _laguerre_pair(steps, x)
        else:
            l1, l0 = _laguerre_pair(steps, x)
        # y and y' over c^n n!, and sigma^2 y'' = c a sigma x_d2
        y, dy, x_d2 = l0 - l1, a * l1, n_f * l0 - (n_beta - x) * l1
        sig, p = c * A, pi0 + pi1 * A
        # sigma^2 (g' + g^2) = pi^2 - c pi0
        t_1 = sig * (ca * x_d2 + 2.0 * p * dy) + (p * p - c_pi0) * y
        t_2 = 2.0 * (sig * dy + p * y)
        t_3 = (s0 + (s1 + s2 * A) * A) * y
        total = abs(t_1) + abs(t_2) + abs(t_3)
        defect = abs(t_1 + t_2 + t_3) / total if total else math.inf
        if not defect <= worst:  # larger, or NaN
            worst = defect if math.isfinite(defect) else math.inf
    return worst


def recover_configuration_space(point: OpPoint) -> OpPoint:
    """The configuration-space point (alpha, 0, 0, delta) when the
    prefactor is exactly absent.

    Legitimate only when gamma = 0 (no phase prefactor) and beta = 0
    (A degenerates to alpha*r): then the body is already a configuration-
    space radial function.  Any other point would need the inverse
    transform back to the untransformed momentum, which is out of scope.
    A point off the manifold raises ValueError.
    """
    check_point(point, point.alpha * point.delta)
    if abs(point.gamma) > MANIFOLD_TOL or abs(point.beta) > MANIFOLD_TOL:
        raise UnsupportedRecovery(
            "recovery needs gamma = 0 and beta = 0; point has "
            f"gamma={point.gamma}, beta={point.beta}"
        )
    return OpPoint(point.alpha, 0.0, 0.0, point.delta)
