#!/usr/bin/env python3
"""Walk the coefficient manifold and the diagonal transform algebra.

Prints the canonical solvable points, probes the commutator invariant
off and on the manifold, runs a composition example, and shows which
phase angles come out state-independent.
"""

from phasenu.errors import WavefunctionDependentAngle
from phasenu.hydrogen import CONFIG_SPACE_POINT, DEEP_BRANCH_POINT
from phasenu.opspace import (
    AngleKind,
    OpPoint,
    classify,
    commutator_coefficient,
    complement,
    compose,
    fundamental,
    identity,
    is_on_manifold,
    manifold_point,
    phase_angle,
)


def show_point(label, p):
    tag = "manifold" if is_on_manifold(p) else "off-manifold"
    print(f"  {label}: {tuple(p)}  c = {commutator_coefficient(p):+.3f}  [{tag}]")


def main():
    print("canonical points")
    show_point("configuration space", CONFIG_SPACE_POINT)
    show_point("deep branch        ", DEEP_BRANCH_POINT)
    show_point("balanced           ", manifold_point(0.5, 2.0, 0.5))
    show_point("probe (off)        ", OpPoint(1.0, 0.0, 0.0, -2.0))
    print()

    print("transform algebra")
    g = identity()
    print(f"  identity            {g.diag}  -> {classify(g).name}")
    for kind in (1, 2, 3, 4):
        f = fundamental(kind)
        print(f"  fundamental({kind})      {f.diag}  complement {complement(f).diag}")
    g0 = fundamental(3)
    combo = compose(g0, [(complement(g0), 2)])
    print(f"  compose f3 - 2*comp {combo.diag}  -> {classify(combo).name}")
    print()

    print("phase angles at r = 1, p = 2, hbar = 1")
    for label, point in (("config", CONFIG_SPACE_POINT), ("deep  ", DEEP_BRANCH_POINT)):
        for kind in AngleKind:
            try:
                angle = phase_angle(kind, 1.0, 2.0, point, 1.0)
                print(f"  {label} {kind.name}: {angle.real:+.6f}")
            except WavefunctionDependentAngle:
                print(f"  {label} {kind.name}: depends on the state, no pointwise value")
            except ZeroDivisionError:
                print(f"  {label} {kind.name}: coefficient ratio diverges here")


if __name__ == "__main__":
    main()
