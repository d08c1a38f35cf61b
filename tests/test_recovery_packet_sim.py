"""The event-driven episode simulator must agree with the vectorised model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RecoveryError
from repro.recovery.episode import RepairSource, starvation_episode
from repro.recovery.packet_sim import EpisodeSimulator, simulate_episode
from tests.conftest import repair_end_approx


def src(rate, has_data=True, member_id=1, delay=10.0):
    return RepairSource(
        member_id=member_id, rate_pps=rate, has_data=has_data, delay_ms=delay
    )


def both(sources, gap=150, rate=10.0, buffer_s=5.0, detect=0.5, hop=0.5, striped=True):
    kwargs = dict(
        gap_packets=gap,
        packet_rate_pps=rate,
        buffer_ahead_s=buffer_s,
        detect_s=detect,
        request_hop_s=hop,
        sources=sources,
        striped=striped,
    )
    return starvation_episode(**kwargs), simulate_episode(**kwargs)


def assert_equivalent(vectorised, simulated):
    assert vectorised.gap_packets == simulated.gap_packets
    assert vectorised.repaired_in_time == simulated.repaired_in_time
    assert vectorised.missed_packets == simulated.missed_packets
    assert vectorised.starving_s == pytest.approx(simulated.starving_s)
    assert vectorised.coverage == pytest.approx(simulated.coverage)
    assert vectorised.repair_end_s == repair_end_approx(simulated)


class TestEquivalence:
    def test_single_full_rate_source(self):
        assert_equivalent(*both([src(10.0)], buffer_s=30.0))

    def test_partial_single_source(self):
        assert_equivalent(*both([src(6.0)]))

    def test_striped_multi_source(self):
        assert_equivalent(*both([src(4.0), src(3.0, member_id=2), src(5.0, member_id=3)]))

    def test_sequential_multi_source(self):
        assert_equivalent(
            *both(
                [src(0.0), src(7.0, has_data=False, member_id=2), src(4.0, member_id=3)],
                striped=False,
            )
        )

    def test_no_sources(self):
        assert_equivalent(*both([]))

    def test_zero_gap(self):
        assert_equivalent(*both([src(5.0)], gap=0))


@settings(max_examples=50, deadline=None)
@given(
    rates=st.lists(st.floats(0.0, 9.0), min_size=0, max_size=5),
    dead=st.lists(st.booleans(), min_size=5, max_size=5),
    gap=st.integers(0, 180),
    buffer_s=st.floats(1.0, 30.0),
    detect=st.floats(0.0, 5.0),
    hop=st.floats(0.0, 2.0),
    striped=st.booleans(),
)
def test_models_agree_on_random_episodes(rates, dead, gap, buffer_s, detect, hop, striped):
    sources = [
        src(r, has_data=dead[i], member_id=i + 1) for i, r in enumerate(rates)
    ]
    vectorised, simulated = both(
        sources, gap=gap, buffer_s=buffer_s, detect=detect, hop=hop, striped=striped
    )
    assert_equivalent(vectorised, simulated)


def test_models_agree_at_near_zero_source_rate():
    """A near-zero source rate pushes repair_end_s to ~5.3e9 s, where the
    two models differ by 2 ulps (1.9e-6 s): inside the relative bound,
    past the absolute one.  Hypothesis finds this example for the
    property above only occasionally, so it is replayed on every run."""
    rates = [3.2080169462735535e-09]
    dead = [True, False, False, False, False]
    sources = [
        src(r, has_data=dead[i], member_id=i + 1) for i, r in enumerate(rates)
    ]
    vectorised, simulated = both(
        sources, gap=17, buffer_s=1.0, detect=0.0, hop=0.0, striped=False
    )
    assert_equivalent(vectorised, simulated)


class TestPacketRecords:
    def test_per_packet_fates_recorded(self):
        sim = EpisodeSimulator(
            gap_packets=50,
            packet_rate_pps=10.0,
            buffer_ahead_s=10.0,
            detect_s=0.5,
            request_hop_s=0.5,
            sources=[src(5.0), src(5.0, member_id=2)],
            striped=True,
        )
        outcome = sim.run()
        arrived = [r for r in sim.records if r.arrival_s is not None]
        assert len(arrived) > 0
        assert sum(r.in_time for r in sim.records) == outcome.repaired_in_time
        # every delivered packet knows its source
        assert all(r.source_id is not None for r in arrived)
        # arrivals within one source are strictly increasing
        by_source = {}
        for record in arrived:
            by_source.setdefault(record.source_id, []).append(record.arrival_s)
        for arrivals in by_source.values():
            assert arrivals == sorted(arrivals)

    def test_validation(self):
        with pytest.raises(RecoveryError):
            EpisodeSimulator(-1, 10.0, 5.0, 0.5, 0.5, [], True)
        with pytest.raises(RecoveryError):
            EpisodeSimulator(10, 0.0, 5.0, 0.5, 0.5, [], True)
