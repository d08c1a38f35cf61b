"""Post-rejoin backfill from the new parent's buffer."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import RecoveryError
from repro.recovery.episode import BackfillSpec, RepairSource, starvation_episode
from repro.recovery.packet_sim import simulate_episode
from tests.conftest import repair_end_approx


def src(rate, has_data=True, member_id=1):
    return RepairSource(member_id=member_id, rate_pps=rate, has_data=has_data)


def episode(sources, backfill, gap=150, buffer_s=5.0, striped=True, sim=False):
    fn = simulate_episode if sim else starvation_episode
    return fn(
        gap_packets=gap,
        packet_rate_pps=10.0,
        buffer_ahead_s=buffer_s,
        detect_s=0.5,
        request_hop_s=0.5,
        sources=sources,
        striped=striped,
        backfill=backfill,
    )


def test_backfill_rescues_uncovered_packets():
    no_backfill = episode([src(5.0)], None, buffer_s=30.0)
    backfilled = episode(
        [src(5.0)], BackfillSpec(start_s=15.0, rate_pps=9.0, cutoff_seq=0),
        buffer_s=30.0,
    )
    assert no_backfill.missed_packets > 0
    assert backfilled.missed_packets < no_backfill.missed_packets


def test_cutoff_limits_what_the_parent_can_replay():
    full = episode([], BackfillSpec(15.0, 9.0, cutoff_seq=0), buffer_s=30.0)
    tail_only = episode([], BackfillSpec(15.0, 9.0, cutoff_seq=100), buffer_s=30.0)
    assert full.missed_packets < tail_only.missed_packets
    # packets below the cutoff are unrecoverable without group repair
    assert tail_only.missed_packets >= 100


def test_zero_rate_backfill_is_noop():
    base = episode([src(4.0)], None)
    with_spec = episode([src(4.0)], BackfillSpec(15.0, 0.0, 0))
    assert base.missed_packets == with_spec.missed_packets


def test_backfill_never_hurts():
    for buffer_s in (5.0, 15.0, 27.0):
        base = episode([src(3.0)], None, buffer_s=buffer_s)
        spec = BackfillSpec(15.0, 6.0, cutoff_seq=max(0, int((15 - buffer_s) * 10)))
        improved = episode([src(3.0)], spec, buffer_s=buffer_s)
        assert improved.missed_packets <= base.missed_packets


def test_bigger_buffer_helps_through_backfill():
    """The Fig. 13 mechanism: with the same group, larger buffers expose
    more of the gap to parent replay."""
    missed = []
    for buffer_s in (5.0, 15.0, 27.0):
        cutoff = max(0, int((15.0 - buffer_s) * 10))
        out = episode(
            [src(3.0)],
            BackfillSpec(15.0, 6.0, cutoff_seq=cutoff),
            buffer_s=buffer_s,
        )
        missed.append(out.missed_packets)
    assert missed[0] > missed[1] > missed[2]


def test_validation():
    with pytest.raises(RecoveryError):
        BackfillSpec(start_s=-1.0, rate_pps=1.0, cutoff_seq=0)
    with pytest.raises(RecoveryError):
        BackfillSpec(start_s=1.0, rate_pps=-1.0, cutoff_seq=0)


@settings(max_examples=40, deadline=None)
@given(
    rates=st.lists(st.floats(0.0, 9.0), min_size=0, max_size=4),
    buffer_s=st.floats(1.0, 30.0),
    gap=st.integers(0, 180),
    striped=st.booleans(),
    backfill_rate=st.floats(0.0, 9.0),
    cutoff=st.integers(0, 200),
)
# A near-zero rate stretches repair to ~6e9 s, where the packet sim's
# chained additions land 2 ULPs off the closed form.
@example(
    rates=[3.179946746050309e-09],
    buffer_s=1.0,
    gap=19,
    striped=False,
    backfill_rate=0.0,
    cutoff=0,
)
def test_models_agree_with_backfill(rates, buffer_s, gap, striped, backfill_rate, cutoff):
    sources = [src(r, member_id=i + 1) for i, r in enumerate(rates)]
    spec = BackfillSpec(start_s=15.0, rate_pps=backfill_rate, cutoff_seq=cutoff)
    vec = episode(sources, spec, gap=gap, buffer_s=buffer_s, striped=striped)
    sim = episode(sources, spec, gap=gap, buffer_s=buffer_s, striped=striped, sim=True)
    assert vec.missed_packets == sim.missed_packets
    assert vec.repaired_in_time == sim.repaired_in_time
    assert vec.starving_s == pytest.approx(sim.starving_s)
    assert vec.repair_end_s == repair_end_approx(sim)
