"""The one atomic writer, and the writers that publish through it."""

import os
from pathlib import Path

import pytest

from repro.config import TopologyConfig
from repro.fileio import publish
from repro.topology.cache import TopologyCache
from repro.validate.baseline import load_baseline, save_baseline
from repro.validate.report import write_report

GOLDEN_BASELINE = Path(__file__).parent / "golden" / "baselines" / "fig07.json"
TINY_TOPOLOGY = TopologyConfig(
    transit_domains=2,
    transit_nodes_per_domain=3,
    stub_domains_per_transit=2,
    stub_nodes_per_domain=5,
    seed=9,
)


def test_publish_creates_parents_and_cleans_up_on_failure(tmp_path, monkeypatch):
    path = tmp_path / "new" / "dir" / "file.bin"
    publish(str(path), b"first")
    assert path.read_bytes() == b"first"

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        publish(str(path), b"second")
    assert path.read_bytes() == b"first"
    assert [p.name for p in path.parent.iterdir()] == ["file.bin"]


@pytest.mark.parametrize(
    "write",
    [
        pytest.param(
            lambda d: save_baseline(
                load_baseline(str(GOLDEN_BASELINE)), str(d / "fig07.json")
            ),
            id="save_baseline",
        ),
        pytest.param(
            lambda d: write_report({"passed": True}, str(d / "report.json")),
            id="write_report",
        ),
        pytest.param(
            lambda d: TopologyCache(disk_dir=str(d)).get(TINY_TOPOLOGY),
            id="topology-disk-tier",
        ),
    ],
)
def test_writers_fsync_before_the_rename(tmp_path, monkeypatch, write):
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append("fsync")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write(tmp_path)
    assert calls == ["fsync", "replace"]
    assert len(list(tmp_path.iterdir())) == 1
