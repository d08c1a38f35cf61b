"""``benchmarks/compare.py`` prints the sweep's peak RSS and gates none of it."""

import copy
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", REPO_ROOT / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_peak_rss_is_printed_not_gated():
    compare = _load("compare")
    old = compare.load_report(str(REPO_ROOT / "BENCH_PR10.json"))
    assert "parent_peak_rss_mb" not in old["sweep"]
    new = copy.deepcopy(old)
    new["sweep"].update(parent_peak_rss_mb=50.0, workers_peak_rss_mb=40.0)
    lines, failures = compare.compare(old, new, 30.0, 0.5)
    assert any("sweep parent peak RSS" in line and "50.0 MB" in line for line in lines)
    assert any("sweep workers peak RSS" in line and "40.0 MB" in line for line in lines)
    worse = copy.deepcopy(new)
    worse["sweep"].update(parent_peak_rss_mb=500.0, workers_peak_rss_mb=400.0)
    lines, failures = compare.compare(new, worse, 30.0, 0.5)
    assert failures == []
    assert any("+900.0%" in line for line in lines)


def test_peak_rss_reads_rusage_in_mb():
    import resource

    report = _load("report")
    assert report.peak_rss_mb(resource.RUSAGE_SELF) > 1.0
