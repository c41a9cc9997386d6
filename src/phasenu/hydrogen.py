"""Hydrogen bound states in a transformed phase-space variable.

The radial Coulomb problem, written in the collective variable
``A = alpha*r + i*hbar*beta*pbar``, becomes hypergeometric-type with

    sigma(A) = -alphadelta * A,  tau_tilde = 2,
    sigma_tilde(A) = -omega + zeta*A - kappa*A**2,

where omega = L(L+1), zeta = 2 e^2 k m / hbar^2, and kappa = -2 m E / hbar^2
carries the energy.  The constant K of the generic pipeline makes the
radical a perfect square for any c = -alphadelta > 0, and the levels are
kappa = zeta^2 / (4 d^2) with

    d(n, L) = [c (2n + 1) + sqrt((c - 2)^2 + 4 L(L+1))] / 2.

Only (alphadelta + 2)^2 = 1, i.e. alphadelta in {-1, -3}, makes d an
integer for every L: the -1 branch reproduces the standard spectrum with
d = n + L + 1, the -3 branch yields the deeper d = L + 3n + 2 family.
These two are the products solved here.  Everything goes through the
generic NU solver (kappa by a bracketed Brent-Dekker root search); the
closed forms are kept only as cross-check targets.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

from . import nu
from .errors import BranchPointError, UnsupportedBranch, UnsupportedRecovery
from .numeric import ExpPowerTerm, _horner, _trim
from .opspace import MANIFOLD_TOL, OpPoint, is_on_manifold


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants plus the angular momentum quantum number.

    Defaults are atomic units (mass = hbar = coulomb_constant =
    charge_squared = 1), in which the configuration-space ground state
    sits at -0.5.
    """

    mass: float = 1.0
    hbar: float = 1.0
    coulomb_constant: float = 1.0
    charge_squared: float = 1.0
    angular_momentum: int = 0

    def __post_init__(self) -> None:
        for name in ("mass", "hbar", "coulomb_constant", "charge_squared"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        L = self.angular_momentum
        if not isinstance(L, int) or L < 0:
            raise ValueError("angular_momentum must be a non-negative integer")

    @property
    def omega(self) -> float:
        """L(L+1), minus the constant term of sigma_tilde."""
        L = self.angular_momentum
        return float(L * (L + 1))

    @property
    def zeta(self) -> float:
        """2 e^2 k m / hbar^2, the linear coefficient of sigma_tilde."""
        return 2.0 * self.charge_squared * self.coulomb_constant * self.mass / self.hbar**2

    def energy_of_kappa(self, kappa: float) -> float:
        """E from kappa = -2 m E / hbar^2."""
        return -self.hbar**2 * kappa / (2.0 * self.mass)


#: Configuration space: beta = gamma = 0, A degenerates to r.
CONFIG_SPACE_POINT = OpPoint(1.0, 0.0, 0.0, -1.0)

#: The worked deep-branch point with alphadelta = -3.
DEEP_BRANCH_POINT = OpPoint(-3.0, 1.0, -2.0, 1.0)


class Branch(NamedTuple):
    """A solvable alphadelta: its canonical point and the closed-form
    denominator d(n, L) of E_n = -e^4 k^2 m / (2 hbar^2 d^2)."""

    point: OpPoint
    denominator: Callable[[int, int], int]


#: The roots of (alphadelta + 2)^2 = 1, the only products for which
#: (alphadelta + 2)^2 + 4*omega equals (2L+1)^2 at every integer L, so that
#: the closed-form denominator d(n, L) is an integer; the solver itself
#: would take any product, and branch_of refuses the others.
BRANCHES: dict[float, Branch] = {
    -1.0: Branch(CONFIG_SPACE_POINT, lambda n, L: n + L + 1),
    -3.0: Branch(DEEP_BRANCH_POINT, lambda n, L: L + 3 * n + 2),
}


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
    return nu.NuProblem(-label, (-params.omega, params.zeta, 0.0), (2.0, 0.0))


def closed_form_energy(params: PhysicalParams, n: int, alphadelta: float) -> float:
    """Reference spectrum, used only to cross-check the generic solver:
    E_n = -e^4 k^2 m / (2 hbar^2 d^2), d from the branch's table entry."""
    if n < 0:
        raise ValueError("n must be non-negative")
    d = BRANCHES[branch_of(alphadelta)].denominator(n, params.angular_momentum)
    num = params.charge_squared**2 * params.coulomb_constant**2 * params.mass
    return -num / (2.0 * params.hbar**2 * d * d)


def solve_energy(params: PhysicalParams, n: int, alphadelta: float) -> float:
    """Energy from the generic NU pipeline, no closed form consulted."""
    kappa = nu.solve_kappa(build_radial_family(params, alphadelta), n)
    return params.energy_of_kappa(kappa)


@dataclass(frozen=True)
class PhaseSpaceConfig:
    """A manifold point together with its alpha*delta product.

    The product is stored separately because it is the branch label the
    radial family depends on; construction checks it against the point.
    """

    point: OpPoint
    alphadelta: float

    def __post_init__(self) -> None:
        if not is_on_manifold(self.point):
            raise ValueError(
                f"point {self.point.as_tuple()} violates the commutator constraint"
            )
        product = self.point.alpha * self.point.delta
        if not abs(product - self.alphadelta) <= MANIFOLD_TOL * max(1.0, abs(product)):
            raise ValueError(
                f"alphadelta={self.alphadelta} does not match the point "
                f"product {product}"
            )


def canonical_config(alphadelta: float) -> PhaseSpaceConfig:
    """Default representative point of the branch at alphadelta."""
    label = branch_of(alphadelta)
    return PhaseSpaceConfig(BRANCHES[label].point, label)


@dataclass(frozen=True)
class WavefunctionForm:
    """Assembled eigenstate: exponential-power body in A plus the
    untransformed-phase metadata.

    ``prefactor_rate`` is gamma/delta, the coefficient of i*p*r/hbar in the
    prefactor exponent.  The prefactor lives in the untransformed momentum
    and is never folded into numerical evaluation of the body.
    """

    prefactor_rate: complex
    body: ExpPowerTerm
    config: PhaseSpaceConfig
    n: int
    kappa: float


def assemble_wavefunction(
    params: PhysicalParams, config: PhaseSpaceConfig, n: int
) -> WavefunctionForm:
    """Quantize level n on the config's branch and build phi*y in A."""
    family = build_radial_family(params, config.alphadelta)
    if config.point.delta == 0.0:
        raise ValueError("delta must be nonzero to define the prefactor")
    state = nu.solve_state(family, n)
    rate = complex(config.point.gamma / config.point.delta)
    return WavefunctionForm(
        prefactor_rate=rate, body=state.body, config=config, n=n, kappa=state.kappa
    )


def eval_wavefunction(
    wf: WavefunctionForm, r: float, pbar: complex, hbar: float
) -> complex:
    """Body value at A = alpha*r + i*hbar*beta*pbar (prefactor excluded)."""
    point = wf.config.point
    a_val = point.alpha * r + 1j * hbar * point.beta * pbar
    return wf.body.evaluate(a_val)


def _annulus() -> tuple[complex, ...]:
    rng = random.Random(20260822)
    return tuple(
        cmath.rect(rng.uniform(0.5, 5.0), rng.uniform(-0.499 * cmath.pi, 0.499 * cmath.pi))
        for _ in range(100)
    )


#: Sample points of the residual check: 100 seeded points with
#: 0.5 <= |A| <= 5 and Re A > 0.
ANNULUS = _annulus()


def ode_residual(state: nu.NuState, samples: Sequence[complex]) -> float:
    """Worst relative defect of the state's own equation over samples.

    A state assembled at a detuned kappa (``nu.assemble``) carries the
    equation at that kappa, so its residual measures how far the assembly
    drifts from solving it.  A non-finite defect reads inf; a sample
    where sigma vanishes (A = 0) raises :class:`BranchPointError`, and
    a power A**b beyond the float range raises ``OverflowError``.

    psi, psi' and psi'' share their rate, so each sample takes one
    exponential; the six polynomials go through ``_horner`` on their
    coefficients, those of the equation with their exact-zero tail dropped
    as ``Poly`` drops it.  The bits are those of ``ExpPowerTerm.evaluate``
    and ``Poly.__call__``, whose float path gives the complex recursion's
    bits.
    """
    body = state.body
    d1 = body.derivative()
    d2 = d1.derivative()
    problem = state.problem
    rate, p0, p1, p2 = body.rate, body.power, d1.power, d2.power
    c0, c1, c2 = (term.poly.coeffs[::-1] for term in (body, d1, d2))
    c_sig = (problem.c, 0j)
    c_tau, c_st = (_trim(list(p))[::-1] for p in (problem.tau_tilde, problem.sigma_tilde))
    worst = 0.0
    for z in samples:
        z = complex(z)
        exp_z = cmath.exp(rate * z)
        sig = _horner(c_sig, z, 0j)
        if sig == 0:
            raise BranchPointError(f"sigma vanishes at A = {z}")
        omega_val = _horner(c0, z, 0j) * exp_z * z**p0
        lhs = (
            _horner(c2, z, 0j) * exp_z * z**p2
            + _horner(c_tau, z, 0j) / sig * (_horner(c1, z, 0j) * exp_z * z**p1)
            + _horner(c_st, z, 0j) / (sig * sig) * omega_val
        )
        defect = abs(lhs) / (1.0 + abs(omega_val))
        if not defect <= worst:  # larger, or NaN
            worst = defect if math.isfinite(defect) else math.inf
    return worst


def recover_configuration_space(wf: WavefunctionForm) -> WavefunctionForm:
    """Drop the prefactor when it is exactly absent.

    Legitimate only when gamma = 0 (no phase prefactor) and beta = 0
    (A degenerates to alpha*r): then the body is already a configuration-
    space radial function.  Any other point would need the inverse
    transform back to the untransformed momentum, which is out of scope.
    """
    point = wf.config.point
    if abs(point.gamma) > MANIFOLD_TOL or abs(point.beta) > MANIFOLD_TOL:
        raise UnsupportedRecovery(
            "recovery needs gamma = 0 and beta = 0; point has "
            f"gamma={point.gamma}, beta={point.beta}"
        )
    return replace(wf, prefactor_rate=0j)
