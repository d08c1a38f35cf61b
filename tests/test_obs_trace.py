"""Golden-trace determinism and trace file publication.

Three checked-in goldens pin the trace byte format:

* ``tests/golden/trace_engine.jsonl`` — a scripted bare-kernel run
  (no RNG involved, fully platform-independent) covering the
  high-volume ``event`` records plus ``fault`` and ``run_end``.
* ``tests/golden/trace_churn_small.jsonl`` — a tiny ROST churn run
  covering the structural records (``run_start``/``switch``/
  ``disruption``/``episode_open``/``episode_close``).
* ``tests/golden/trace_multitree_small.jsonl`` — a tiny K=2 striped
  run with a correlated crash, covering ``stripe_outage_open``/
  ``stripe_outage_close`` and the per-stripe ``run_start`` metadata.

Regenerate after an intentional format change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_trace.py
"""

import dataclasses
import json
import os
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments import runner
from repro.obs.attach import ObsAttachment
from repro.obs.schema import RECORD_TYPES, validate_trace_lines
from repro.protocols import PROTOCOLS
from repro.sim.engine import Simulator
from repro.simulation.churn import ChurnSimulation

from .conftest import small_sim_config

GOLDEN_DIR = Path(__file__).parent / "golden"
ENGINE_GOLDEN = GOLDEN_DIR / "trace_engine.jsonl"
CHURN_GOLDEN = GOLDEN_DIR / "trace_churn_small.jsonl"
MULTITREE_GOLDEN = GOLDEN_DIR / "trace_multitree_small.jsonl"
ALL_GOLDENS = (ENGINE_GOLDEN, CHURN_GOLDEN, MULTITREE_GOLDEN)


def _engine_trace_unit():
    """A scripted kernel run: deterministic without any RNG."""
    sim = Simulator()
    attachment = ObsAttachment(
        meta={"kind": "engine"},
        trace=True,
        trace_events=True,
        metrics=True,
        profile=False,
    ).attach_engine(sim)

    def noop():
        pass

    sim.schedule_at(1.0, noop, label="tick")
    sim.schedule_at(2.0, noop, label="fault:test-outage", priority=-2)
    sim.schedule_at(2.0, noop, priority=1)
    cancelled = sim.schedule_at(3.0, noop, label="never-fires")
    cancelled.cancel()
    sim.schedule_at(4.0, noop, label="fault:test-crash")
    sim.run_until(5.0)
    return attachment.finalize()


def _golden_churn_config():
    # The paper's 100-slot root would absorb every member at this size
    # (flat tree, nothing to switch or recover); a 3-slot root forces
    # depth so the golden exercises switches and recovery episodes.
    cfg = small_sim_config(
        population=40,
        seed=9,
        warmup_lifetimes=0.4,
        measure_lifetimes=1.0,
        switch_interval_s=30.0,
    )
    return dataclasses.replace(
        cfg, workload=dataclasses.replace(cfg.workload, root_bandwidth=3.0)
    )


@lru_cache(maxsize=None)
def _multitree_trace_lines():
    """A tiny K=2 striped run under a correlated crash, traced per stripe.

    The harness's instrument seam observes each stripe the driver
    yields, under the trace flag — the same path a traced campaign uses.
    """
    from repro.experiments.common import Instruments, exported_env
    from repro.faults import FaultSchedule, NodeCrash
    from repro.multitree import MultiTreeSimulation
    from repro.obs.capture import ENV_TRACE

    cfg = _golden_churn_config()
    schedule = FaultSchedule(
        seed=3, faults=(NodeCrash(count=4, at_frac=0.5),)
    )
    with exported_env({ENV_TRACE: "1"}):
        instruments = Instruments()
        sim = MultiTreeSimulation(
            cfg,
            num_trees=2,
            stripe_protocols=["rost", "rost"],
            faults=schedule,
        )
        for stripe, meta in sim.stripes():
            instruments.observe(stripe, meta)
        sim.run()
        units = instruments.finish()
    return [line for unit in units for line in unit.trace_lines]


@lru_cache(maxsize=None)
def _churn_trace_unit(profile: bool):
    sim = ChurnSimulation(_golden_churn_config(), PROTOCOLS["rost"])
    attachment = ObsAttachment(
        meta={"kind": "churn", "protocol": "rost"},
        trace=True,
        trace_events=False,
        metrics=True,
        profile=profile,
    ).attach(sim)
    sim.run()
    return attachment.finalize()


def _check_golden(golden_path: Path, lines):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden_path.parent.mkdir(exist_ok=True)
        golden_path.write_text("".join(line + "\n" for line in lines))
    expected = golden_path.read_text().splitlines()
    assert lines == expected, (
        f"trace diverged from {golden_path.name}; if the format change is "
        "intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )


def test_engine_trace_matches_golden():
    _check_golden(ENGINE_GOLDEN, _engine_trace_unit().trace_lines)


def test_churn_trace_matches_golden():
    _check_golden(CHURN_GOLDEN, _churn_trace_unit(False).trace_lines)


def test_multitree_trace_matches_golden():
    lines = _multitree_trace_lines()
    _check_golden(MULTITREE_GOLDEN, lines)
    types = {json.loads(line)["type"] for line in lines}
    assert {"stripe_outage_open", "stripe_outage_close"} <= types


def test_engine_trace_repeat_generation_is_byte_identical():
    assert _engine_trace_unit().trace_lines == _engine_trace_unit().trace_lines


def test_goldens_are_schema_valid():
    for path in ALL_GOLDENS:
        lines = path.read_text().splitlines()
        assert validate_trace_lines(lines) == len(lines) > 0


def test_goldens_cover_every_record_type():
    types = set()
    for path in ALL_GOLDENS:
        for line in path.read_text().splitlines():
            types.add(json.loads(line)["type"])
    assert types == set(RECORD_TYPES)


def test_trace_is_independent_of_profile_channel():
    """Wall-time data must never leak into trace records: enabling the
    profiler cannot change a single trace byte."""
    plain = _churn_trace_unit(False)
    profiled = _churn_trace_unit(True)
    assert plain.trace_lines == profiled.trace_lines
    assert plain.metrics == profiled.metrics
    assert plain.profile == {}
    assert profiled.profile["by_key"]  # wall times live here, and only here
    for line in profiled.trace_lines:
        assert "wall" not in line


def test_engine_trace_skips_cancelled_events_and_counts_faults():
    unit = _engine_trace_unit()
    labels = [
        json.loads(line)["label"]
        for line in unit.trace_lines
        if json.loads(line)["type"] == "event"
    ]
    assert "never-fires" not in labels
    assert unit.metrics["counters"]["faults.activations"] == 2
    assert unit.metrics["counters"]["sim.events_processed"] == 4


# -- trace file publication -------------------------------------------------------------


def _publish_trace(path, lines):
    """Write ``lines`` the way the runner publishes a merged ``--trace``."""
    collector = runner._ArtifactCollector()
    collector.trace_lines = list(lines)
    collector.emit_sections(SimpleNamespace(trace=str(path)), None, {})


def test_file_writer_publishes_atomically(tmp_path, monkeypatch):
    path = tmp_path / "run.trace.jsonl"
    path.write_text("previous\n")
    lines = [
        json.dumps({"type": "fault", "t": t, "label": f"fault:{t}"},
                   separators=(",", ":"))
        for t in (1.0, 2.0, 3.0)
    ]
    synced, published = [], []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        synced.append(fd)
        real_fsync(fd)

    def replace(src, dst):
        # The complete, fsynced temp file sits next to the target, which
        # still holds its previous content until the rename.
        assert synced
        assert os.path.dirname(src) == str(tmp_path)
        assert Path(src).read_text() == "".join(line + "\n" for line in lines)
        assert path.read_text() == "previous\n"
        published.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    _publish_trace(path, lines)
    assert published == [str(path)]
    assert path.read_text().splitlines() == lines
    assert validate_trace_lines(path.read_text().splitlines()) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["run.trace.jsonl"]


def test_file_writer_abort_leaves_nothing(tmp_path, monkeypatch):
    """A write that fails before the rename publishes nothing and leaves
    no temp file behind."""
    path = tmp_path / "run.trace.jsonl"

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        _publish_trace(path, ['{"type":"fault","t":1.0,"label":"fault:a"}'])
    assert list(tmp_path.iterdir()) == []
