"""Unit tests for the shedding policies and the admission controller."""

import pytest

from repro.overload.admission import (
    AdmissionController,
    DropTailShedding,
    PriorityShedding,
    ProbabilisticShedding,
    SheddingPolicy,
    build_shedding_policy,
)
from repro.overload.detector import OverloadConfig, OverloadDetector


class TestDropTail:
    def test_admits_below_cap_sheds_at_cap(self):
        policy = DropTailShedding(4)
        assert policy.admit(0, backlog=3, pressure=1.0)
        assert not policy.admit(1, backlog=4, pressure=0.0)

    def test_ignores_pressure(self):
        policy = DropTailShedding(10)
        assert policy.admit(0, backlog=0, pressure=1.0)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            DropTailShedding(0)


class TestProbabilistic:
    def test_zero_pressure_admits_everything(self):
        policy = ProbabilisticShedding(seed=1)
        assert all(policy.admit(i, 0, 0.0) for i in range(100))

    def test_full_pressure_sheds_everything(self):
        policy = ProbabilisticShedding(seed=1)
        assert not any(policy.admit(i, 0, 1.0) for i in range(100))

    def test_sheds_roughly_the_pressure_fraction(self):
        policy = ProbabilisticShedding(seed=7)
        n = 5000
        admitted = sum(policy.admit(i, 0, 0.3) for i in range(n))
        assert 0.65 * n < admitted < 0.75 * n

    def test_same_seed_same_decisions(self):
        a = ProbabilisticShedding(seed=42)
        b = ProbabilisticShedding(seed=42)
        decisions_a = [a.admit(i, 0, 0.5) for i in range(200)]
        decisions_b = [b.admit(i, 0, 0.5) for i in range(200)]
        assert decisions_a == decisions_b


class TestPriority:
    def test_zero_pressure_admits_everything(self):
        policy = PriorityShedding()
        assert all(policy.admit(i, 0, 0.0) for i in range(100))

    def test_deterministic_per_index(self):
        policy = PriorityShedding()
        first = [policy.admit(i, 0, 0.4) for i in range(100)]
        second = [policy.admit(i, 0, 0.4) for i in range(100)]
        assert first == second

    def test_admits_the_top_band(self):
        policy = PriorityShedding()
        n = 5000
        admitted = sum(policy.admit(i, 0, 0.7) for i in range(n))
        # Hashed priorities are ~uniform: ~30% should survive p=0.7.
        assert 0.25 * n < admitted < 0.35 * n

    def test_custom_priority_fn(self):
        # Even indices are critical, odd ones are best-effort.
        policy = PriorityShedding(lambda i: 1.0 if i % 2 == 0 else 0.0)
        assert policy.admit(0, 0, 0.9)
        assert not policy.admit(1, 0, 0.9)


class TestAdmissionController:
    def test_tallies_and_ratio(self):
        ctl = AdmissionController(DropTailShedding(2))
        assert ctl.offer(0, backlog=0)
        assert ctl.offer(1, backlog=1)
        assert not ctl.offer(2, backlog=2)
        assert (ctl.offered, ctl.shed) == (3, 1)
        assert ctl.shed_ratio() == pytest.approx(1 / 3)

    def test_ratio_zero_before_any_offer(self):
        ctl = AdmissionController(DropTailShedding(2))
        assert ctl.shed_ratio() == 0.0

    def test_without_detector_pressure_is_zero(self):
        ctl = AdmissionController(ProbabilisticShedding(seed=0))
        assert all(ctl.offer(i, backlog=10**6) for i in range(50))

    def test_detector_pressure_drives_shedding(self):
        det = OverloadDetector(OverloadConfig(trip_confirmations=1))
        det.observe(1.0, backlog=det.config.queue_high, pending=0)
        assert det.overloaded
        ctl = AdmissionController(ProbabilisticShedding(seed=0), det)
        huge = det.config.queue_high * 10  # pressure 1.0
        assert not ctl.offer(0, backlog=huge)
        assert ctl.shed == 1


class TestBuildPolicy:
    def test_none_disables_shedding(self):
        assert build_shedding_policy(OverloadConfig(shedding="none")) is None

    @pytest.mark.parametrize(
        "kind, cls",
        [
            ("drop-tail", DropTailShedding),
            ("probabilistic", ProbabilisticShedding),
            ("priority", PriorityShedding),
        ],
    )
    def test_kind_maps_to_class(self, kind, cls):
        policy = build_shedding_policy(OverloadConfig(shedding=kind))
        assert isinstance(policy, cls)
        assert isinstance(policy, SheddingPolicy)

    def test_drop_tail_inherits_queue_limit(self):
        policy = build_shedding_policy(
            OverloadConfig(shedding="drop-tail", queue_limit=77)
        )
        assert policy.queue_limit == 77
