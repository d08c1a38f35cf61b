"""Repository hygiene: no bytecode, cache, build or result artefacts tracked.

CI enforces the same rule with a `git ls-files` guard; this test keeps
the check in the local tier-1 loop so an accidental `git add -A` of
__pycache__ directories is caught before a push.
"""

import fnmatch
import re
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

FORBIDDEN_PATTERNS = (
    "*.pyc",
    "*.pyo",
    "*/__pycache__/*",
    "__pycache__/*",
    "*/.pytest_cache/*",
    "*/.hypothesis/*",
    ".coverage",
    "coverage.xml",
    "*.egg-info/*",
)


def tracked_files():
    if shutil.which("git") is None or not (REPO_ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    out = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()


def test_no_bytecode_or_cache_artifacts_tracked():
    offenders = [
        path
        for path in tracked_files()
        for pattern in FORBIDDEN_PATTERNS
        if fnmatch.fnmatch(path, pattern)
    ]
    assert offenders == [], f"cache/bytecode artefacts tracked: {offenders}"


def test_gitignore_covers_test_tooling_artifacts():
    ignored = (REPO_ROOT / ".gitignore").read_text().splitlines()
    for required in (
        "__pycache__/",
        "*.pyc",
        ".hypothesis/",
        ".coverage",
        "*.egg-info/",
    ):
        assert required in ignored, f".gitignore is missing {required!r}"


def test_manifest_excludes_bytecode_from_sdists():
    manifest = (REPO_ROOT / "MANIFEST.in").read_text()
    assert "global-exclude *.py[cod]" in manifest
    assert "prune" in manifest and "__pycache__" in manifest


def test_no_stray_trace_files_tracked():
    """The golden fixtures are the only .jsonl files that may be tracked;
    trace output from local runs must never land in the repository."""
    offenders = [
        path
        for path in tracked_files()
        if path.endswith(".jsonl") and not path.startswith("tests/golden/")
    ]
    assert offenders == [], f"stray trace files tracked: {offenders}"


def test_gitignore_covers_trace_output():
    ignored = (REPO_ROOT / ".gitignore").read_text().splitlines()
    for required in ("*.trace.jsonl", ".repro-tmp-*"):
        assert required in ignored, f".gitignore is missing {required!r}"


def test_manifest_ships_goldens_but_not_trace_output():
    manifest = (REPO_ROOT / "MANIFEST.in").read_text()
    assert "recursive-include tests/golden *.jsonl" in manifest
    assert "global-exclude *.trace.jsonl" in manifest
    assert "global-exclude .repro-tmp-*" in manifest


RESULT_ARTIFACT_PATTERNS = (
    "results*.txt",
    "*/results*.txt",
    "*.runstore/*",
)


def test_no_result_artifacts_tracked():
    """Experiment output (results tables, run stores) must never be
    committed; the tracked BENCH_*.json perf baselines are the one
    deliberate exception and do not match these patterns."""
    offenders = [
        path
        for path in tracked_files()
        for pattern in RESULT_ARTIFACT_PATTERNS
        if fnmatch.fnmatch(path, pattern)
    ]
    assert offenders == [], f"result artefacts tracked: {offenders}"


def test_gitignore_covers_result_artifacts():
    ignored = (REPO_ROOT / ".gitignore").read_text().splitlines()
    for required in ("results*.txt", "*.runstore/"):
        assert required in ignored, f".gitignore is missing {required!r}"


def _pyproject_version() -> str:
    text = (REPO_ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
    assert match, "pyproject.toml has no project version"
    return match.group(1)


def _changelog_latest_release() -> str:
    text = (REPO_ROOT / "CHANGELOG.md").read_text()
    match = re.search(r"^## ([0-9]+(?:\.[0-9]+)*)", text, flags=re.MULTILINE)
    assert match, "CHANGELOG.md has no release heading"
    return match.group(1)


def test_pyproject_version_matches_changelog():
    """The released version is written in three places; they must agree
    or the sdist will claim a version with no release notes."""
    assert _pyproject_version() == _changelog_latest_release()


def test_package_version_matches_pyproject():
    import repro

    assert repro.__version__ == _pyproject_version()
