"""Coefficient manifold and the diagonal transform algebra."""

import copy
import math
import pickle
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasenu.errors import ForbiddenCombination, WavefunctionDependentAngle
from phasenu.opspace import (
    AngleKind,
    GEta,
    OpPoint,
    SpaceKind,
    _geta,
    apply_to_point,
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

diag4 = st.tuples(
    st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)
)

#: Application counts: ints and the integral floats compose admits.
counts = st.one_of(st.integers(-6, 6), st.integers(-6, 6).map(float))


def assert_same_geta(got, diag):
    """``got`` is indistinguishable from the validated ``GEta(diag)``."""
    want = GEta(diag)
    assert type(got) is GEta
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert all(type(x) is int for x in got.diag)


class TestManifold:
    def test_configuration_point(self):
        assert is_on_manifold(OpPoint(1.0, 0.0, 0.0, -1.0))

    def test_momentum_point(self):
        assert is_on_manifold(OpPoint(0.0, 1.0, 1.0, 0.0))

    def test_deep_branch_point(self):
        assert is_on_manifold(OpPoint(-3.0, 1.0, -2.0, 1.0))

    def test_off_manifold(self):
        assert not is_on_manifold(OpPoint(1.0, 0.0, 0.0, -2.0))

    def test_commutator_coefficient_values(self):
        assert commutator_coefficient(OpPoint(1.0, 0.0, 0.0, -1.0)) == 1.0
        assert commutator_coefficient(OpPoint(-3.0, 1.0, -2.0, 1.0)) == 1.0
        assert commutator_coefficient(OpPoint(1.0, 0.0, 0.0, -2.0)) == 2.0

    def test_constructor_fills_gamma(self):
        p = manifold_point(-3.0, 1.0, 1.0)
        assert p.gamma == pytest.approx(-2.0)
        assert is_on_manifold(p)

    def test_constructor_rejects_zero_beta(self):
        with pytest.raises(ZeroDivisionError):
            manifold_point(1.0, 0.0, -1.0)

    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(0.1, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_constructor_points_stay_on_manifold(self, alpha, beta, delta):
        p = manifold_point(alpha, beta, delta)
        assert is_on_manifold(p)
        assert abs(commutator_coefficient(p) - 1.0) <= 1e-12


class TestTransforms:
    def test_fundamental_zeroes_one_slot(self):
        assert fundamental(1).diag == (0, 1, 1, 1)
        assert fundamental(2).diag == (1, 0, 1, 1)
        assert fundamental(3).diag == (1, 1, 0, 1)
        assert fundamental(4).diag == (1, 1, 1, 0)

    def test_fundamental_kind_range(self):
        with pytest.raises(ValueError):
            fundamental(0)
        with pytest.raises(ValueError):
            fundamental(5)

    @pytest.mark.parametrize(
        "diag",
        [(1.5, 1, 1, 1), "1234", (math.nan, 1, 1, 1), (1, 1, math.inf, 1), ("1", 1, 1, 1)],
    )
    def test_non_integer_entries_are_refused(self, diag):
        # 1.5 read as 1, "1234" as (1, 2, 3, 4); NaN and inf raised unnamed errors
        message = f"diagonal entries must be integers, got {tuple(diag)!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GEta(diag)

    @pytest.mark.parametrize("diag", [(), (1, 1), (1, 1, 1, 1, 1)])
    def test_other_lengths_are_refused(self, diag):
        with pytest.raises(ValueError, match="^diagonal must have four entries$"):
            GEta(diag)

    def test_integral_entries_read_as_ints(self):
        g = GEta((1.0, 0, -2.0, 1))
        assert g.diag == (1, 0, -2, 1)
        assert all(type(x) is int for x in g.diag)
        with pytest.raises(ValueError, match="four entries"):
            GEta((1, 1, 1))

    def test_complement_of_fundamental_is_single_slot(self):
        assert complement(fundamental(3)).diag == (0, 0, 1, 0)

    def test_complement_of_identity_is_zero(self):
        assert complement(identity()).diag == (0, 0, 0, 0)

    def test_complement_general_diagonal(self):
        assert complement(GEta((1, 1, -1, 1))).diag == (0, 0, 2, 0)

    def test_compose_repeated_application(self):
        out = compose(identity(), [(complement(fundamental(3)), 2)])
        assert out.diag == (1, 1, -1, 1)

    def test_compose_empty_is_identity(self):
        assert compose(identity(), []).diag == (1, 1, 1, 1)

    def test_compose_within_group(self):
        out = compose(
            identity(),
            [(complement(fundamental(3)), 1), (complement(fundamental(4)), 1)],
        )
        assert out.diag == (1, 1, 0, 0)

    def test_compose_rejects_mixed_groups(self):
        with pytest.raises(ForbiddenCombination):
            compose(
                identity(),
                [(complement(fundamental(1)), 1), (complement(fundamental(3)), 1)],
            )

    def test_group_rule_precedes_the_count_check(self):
        mixed = [(complement(fundamental(1)), 1), (complement(fundamental(3)), 1.5)]
        message = (
            "composition touches coefficient slots [0, 2]; "
            "only the (alpha, beta) pair or the (gamma, delta) pair may mix"
        )
        with pytest.raises(ForbiddenCombination, match=re.escape(message)):
            compose(identity(), mixed)
        with pytest.raises(ValueError, match="application counts must be integers"):
            compose(identity(), mixed[1:])

    @given(
        diag4,
        st.sampled_from(((0, 1), (2, 3))),
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), counts), max_size=4),
    )
    @example((1, 1, 1, 1), (0, 1), [])
    @example((2, -1, 3, 0), (2, 3), [(1, 0, 0), (0, 1, -2), (1, 1, 2.0)])
    @settings(max_examples=200, deadline=None)
    def test_results_equal_validated_transforms(self, diag, group, apps):
        """complement and compose skip validation; their results must not
        differ from a GEta built from the same diagonal."""
        g0 = GEta(diag)
        assert_same_geta(complement(g0), tuple(1 - x for x in diag))
        applications, want = [], list(diag)
        for u, v, count in apps:
            shift = [0, 0, 0, 0]
            shift[group[0]], shift[group[1]] = u, v
            applications.append((GEta(shift), count))
            want = [w - int(count) * x for w, x in zip(want, shift)]
        assert_same_geta(compose(g0, applications), tuple(want))

    def test_compose_truth_table(self):
        """compose refuses the complements of exactly the kind subsets that
        mix the (alpha, beta) and (gamma, delta) groups."""
        allowed = {
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({4}),
            frozenset({1, 2}),
            frozenset({3, 4}),
        }
        kinds = (1, 2, 3, 4)
        seen = 0
        for mask in range(1, 16):
            subset = frozenset(k for i, k in enumerate(kinds) if mask >> i & 1)
            seen += 1
            shifts = [(complement(fundamental(k)), 1) for k in subset]
            if subset in allowed:
                compose(identity(), shifts)
            else:
                with pytest.raises(ForbiddenCombination):
                    compose(identity(), shifts)
        assert seen == 15

    def test_apply_zeroing_gamma_leaves_manifold(self):
        image, on_manifold = apply_to_point(fundamental(3), OpPoint(-3.0, 1.0, -2.0, 1.0))
        assert tuple(image) == (-3.0, 1.0, 0.0, 1.0)
        assert not on_manifold

    def test_apply_is_identity_when_slot_already_zero(self):
        image, on_manifold = apply_to_point(fundamental(3), OpPoint(1.0, 0.0, 0.0, -1.0))
        assert tuple(image) == (1.0, 0.0, 0.0, -1.0)
        assert on_manifold

    def test_apply_general_diagonal(self):
        image, on_manifold = apply_to_point(
            GEta((1, 1, -1, 1)), OpPoint(-3.0, 1.0, -2.0, 1.0)
        )
        assert tuple(image) == (-3.0, 1.0, 2.0, 1.0)
        assert not on_manifold
        image, _ = apply_to_point(GEta((1, 1, 1, 2)), OpPoint(-3.0, 1.0, -2.0, 1.5))
        assert tuple(image) == (-3.0, 1.0, -2.0, 3.0)

    @pytest.mark.parametrize("slot, name", enumerate(("alpha", "beta", "gamma", "delta")))
    def test_apply_names_the_entry_beyond_float_range(self, slot, name):
        limit = 2**1024 - 2**970  # halfway to 2**1024: float() rounds up from here
        point = OpPoint(1.0, 1.0, 1.0, 1.0)
        # every other entry rounds to the largest float, so it is not named
        diag = [limit - 1] * 4
        image, _ = apply_to_point(GEta(diag), point)
        assert image[slot] == sys.float_info.max
        for entry in (limit, -limit):
            diag[slot] = entry
            with pytest.raises(OverflowError, match=f"^transform entry {name} does not fit"):
                apply_to_point(GEta(diag), point)

    def test_classification(self):
        assert classify(GEta((1, 0, 0, 1))) is SpaceKind.POSITION_LIKE
        assert classify(GEta((0, 1, 1, 0))) is SpaceKind.MOMENTUM_LIKE
        assert classify(identity()) is SpaceKind.FULL
        assert classify(GEta((1, 1, -1, 1))) is SpaceKind.OTHER

    @given(diag4)
    def test_complement_involution(self, diag):
        g = GEta(diag)
        inner = complement(g)
        assert isinstance(inner, GEta)
        assert complement(inner).diag == g.diag

    @given(diag4, st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=200, deadline=None)
    def test_composition_additivity_and_inverse(self, diag, a, b):
        g0 = GEta(diag)
        gc = complement(fundamental(4))
        split = compose(g0, [(gc, a), (gc, b)])
        joint = compose(g0, [(gc, a + b)])
        assert split.diag == joint.diag
        restored = compose(compose(g0, [(gc, a)]), [(gc, -a)])
        assert restored.diag == g0.diag

    @given(diag4, st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=200, deadline=None)
    def test_composition_order_independent_within_group(self, diag, m, n):
        g0 = GEta(diag)
        g3, g4 = complement(fundamental(3)), complement(fundamental(4))
        forward = compose(g0, [(g3, m), (g4, n)])
        backward = compose(g0, [(g4, n), (g3, m)])
        assert forward.diag == backward.diag


class TestRecords:
    """OpPoint and GEta are NamedTuples with empty slots and no ``__dict__``."""

    RECORDS = [OpPoint(-3.0, 1.0, -2.0, 1.0), GEta((1, 0, -1, 1)), complement(fundamental(3))]
    IDS = ["OpPoint", "GEta", "complement"]

    @pytest.mark.parametrize("record", RECORDS, ids=IDS)
    def test_slotted_without_a_dict(self, record):
        assert "__slots__" in vars(type(record))
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("record", RECORDS, ids=IDS)
    def test_fields_are_frozen(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(AttributeError):
            record.extra = 0

    @pytest.mark.parametrize("record", RECORDS, ids=IDS)
    def test_pickle_and_deepcopy_round_trip(self, record):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(record, protocol))
            assert type(again) is type(record) and again == record
        again = copy.deepcopy(record)
        assert type(again) is type(record) and again == record

    def test_hash_and_repr_are_the_fields(self):
        texts = [
            "OpPoint(alpha=-3.0, beta=1.0, gamma=-2.0, delta=1.0)",
            "GEta(diag=(1, 0, -1, 1))",
            "GEta(diag=(0, 0, 1, 0))",
        ]
        for record, text in zip(self.RECORDS, texts):
            assert hash(record) == hash(tuple(getattr(record, name) for name in record._fields))
            assert repr(record) == text

    def test_unchecked_records_match_validated_ones(self):
        """``_geta`` on drawn ints gives what ``GEta`` gives, down to the
        pickle bytes, and a record that refuses every assignment."""
        rng = random.Random(39)
        for _ in range(500):
            diag = tuple(rng.randint(-9, 9) for _ in range(4))
            got = _geta(diag)
            assert_same_geta(got, diag)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.dumps(got, protocol) == pickle.dumps(GEta(diag), protocol)
            for name in ("diag", "extra"):
                with pytest.raises(AttributeError):
                    setattr(got, name, diag)


class TestPhaseAngles:
    def test_gamma_delta_ratio(self):
        angle = phase_angle(AngleKind.PHI3, 1.0, 1.0, OpPoint(-3.0, 1.0, -2.0, 1.0), 1.0)
        assert angle == pytest.approx(-2.0)

    def test_alpha_beta_ratio(self):
        angle = phase_angle(AngleKind.PHI1, 1.0, 1.0, OpPoint(-3.0, 1.0, -2.0, 1.0), 1.0)
        assert angle == pytest.approx(-3.0)

    def test_null_rotation_for_zero_gamma(self):
        angle = phase_angle(AngleKind.PHI3, 1.0, 1.0, OpPoint(1.0, 0.0, 0.0, -1.0), 1.0)
        assert angle == pytest.approx(0.0)

    def test_scaling_with_momentum_position_product(self):
        angle = phase_angle(AngleKind.PHI1, 2.0, 3.0, OpPoint(-3.0, 1.0, -2.0, 1.0), 2.0)
        assert angle == pytest.approx(-9.0)

    def test_gamma_delta_ratio_scales_with_momentum_position_and_hbar(self):
        """p r / hbar = 3 at hbar = 2, r = 2 and p = 3, and gamma/delta =
        -2/3 at |delta| = 3."""
        angle = phase_angle(AngleKind.PHI3, 2.0, 3.0, manifold_point(-1.0, 1.0, 3.0), 2.0)
        assert angle == pytest.approx(-2.0)

    def test_state_dependent_kinds_refuse_evaluation(self):
        for kind in (AngleKind.PHI2, AngleKind.PHI4):
            with pytest.raises(WavefunctionDependentAngle):
                phase_angle(kind, 1.0, 1.0, OpPoint(-3.0, 1.0, -2.0, 1.0), 1.0)

    def test_vanishing_denominator(self):
        with pytest.raises(ZeroDivisionError):
            phase_angle(AngleKind.PHI1, 1.0, 1.0, OpPoint(1.0, 0.0, 0.0, -1.0), 1.0)
