"""The control plane as a pure function of its audit log.

A record carries the balancer's input — the counters ``update``
received, or the channel ``quarantine`` / ``reintegrate`` acted on — so
:func:`repro.core.balancer.replay` re-runs any log through a fresh
balancer and must land on every record's ``new_weights`` bit for bit.
The scenario logs (simulator and process backend) are pinned in
``tests/obs/test_integration.py`` and
``tests/experiments/test_process_backend.py``.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balancer import BalancerConfig, LoadBalancer, replay
from repro.obs.audit import DecisionAuditLog


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def audited(n, config=None):
    balancer = LoadBalancer(n, config)
    log = DecisionAuditLog()
    clock = Clock()
    balancer.attach_audit(log, clock)
    return balancer, log, clock


def json_round_trip(log):
    return [json.loads(json.dumps(r.as_dict())) for r in log]


class TestAllQuarantinedRecord:
    def test_quarantining_the_last_live_channel_leaves_a_record(self):
        balancer, log, _ = audited(3)
        balancer.update(0, [0, 0, 0])
        balancer.update(1, [0.5, 0.1, 0])
        balancer.quarantine(0)
        balancer.quarantine(1)
        with pytest.raises(RuntimeError, match="no capacity"):
            balancer.quarantine(2)
        last = log.last()
        assert (last.trigger, last.outcome, last.channel) == (
            "quarantine", "all-quarantined", 2
        )
        assert last.new_weights == [0, 0, 1000]
        balancer.reintegrate(1)
        balancer.update(2, [0.5, 0.2, 0.3])
        assert balancer.weights == [0, 1000, 0]
        assert replay(log, None, 3)[-1] == [0, 1000, 0]


class TestRecordedInputs:
    def test_records_carry_inputs_not_derived_values(self):
        balancer, log, clock = audited(3)
        counters = [0.0, 0.0, 0.0]
        for now in range(8):
            clock.now = float(now)
            counters = [c + r for c, r in zip(counters, (0.6, 0.1, 0.0))]
            balancer.update(float(now), counters)
            if now == 3:
                balancer.quarantine(1)
            if now == 5:
                balancer.reintegrate(1)
        periodic = [r for r in log if r.trigger == "periodic"]
        assert [r.channel for r in periodic] == [-1] * len(periodic)
        assert (periodic[0].outcome, periodic[0].round) == ("primed", -1)
        assert periodic[-1].counters == counters
        emergency = [r for r in log if r.trigger != "periodic"]
        assert [(r.trigger, r.channel, r.counters) for r in emergency] == [
            ("quarantine", 1, []), ("reintegrate", 1, []),
        ]


GARBAGE = st.sampled_from([math.nan, math.inf, -math.inf, -1.0])


@st.composite
def control_inputs(draw):
    """A random control-plane history: (config, n, steps)."""
    n = draw(st.integers(2, 4))
    safe = draw(st.booleans())
    config = BalancerConfig(
        clustering=draw(st.booleans()),
        safe_mode=safe,
        max_churn=draw(st.sampled_from([None, 40])) if safe else None,
        safe_flip_limit=2,
    )
    rates = st.lists(st.floats(0.0, 1.5), min_size=n, max_size=n)
    update = st.tuples(st.just("update"), st.floats(0.05, 2.0), rates)
    steps = [
        update,
        st.tuples(st.just("quarantine"), st.integers(0, n - 1), st.none()),
        st.tuples(st.just("reintegrate"), st.integers(0, n - 1), st.none()),
    ]
    if safe:
        # Degenerate samples only safe mode accepts: a non-finite or
        # negative counter, or a clock that did not advance.
        steps += [
            st.tuples(st.just("garbage"), st.integers(0, n - 1), GARBAGE),
            st.tuples(st.just("rewind"), st.floats(0.0, 2.0), rates),
        ]
    return config, n, draw(st.lists(st.one_of(*steps), max_size=40))


class TestReplayProperty:
    @settings(max_examples=150, deadline=None)
    @given(control_inputs())
    def test_replay_reproduces_every_record_bit_for_bit(self, inputs):
        config, n, steps = inputs
        balancer, log, clock = audited(n, config)
        counters = [0.0] * n
        balancer.update(0.0, counters)
        for step, arg, extra in steps:
            if step == "quarantine":
                try:
                    balancer.quarantine(arg)
                except RuntimeError:
                    assert len(balancer.quarantined) == n
            elif step == "reintegrate":
                balancer.reintegrate(arg)
            elif step == "garbage":
                bad = list(counters)
                bad[arg] = extra
                balancer.update(clock.now + 1.0, bad)
            else:
                counters = [c + r * arg for c, r in zip(counters, extra)]
                if step == "update":
                    clock.now += arg
                    balancer.update(clock.now, counters)
                else:
                    balancer.update(clock.now - arg, counters)
        expected = [r.new_weights for r in log]
        assert replay(log, config, n) == expected
        assert replay(json_round_trip(log), config, n) == expected
        assert expected[-1] == balancer.weights
