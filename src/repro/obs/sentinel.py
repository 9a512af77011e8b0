"""Perf-regression sentinel over the checked-in BENCH_*.json baselines.

The repo pins three benchmark trajectories at its root —
``BENCH_delta.json`` (delta-evaluator speedup), ``BENCH_obs.json``
(telemetry overhead) and ``BENCH_shard.json`` (sharded solve scaling).  Until now they were
documentation; :func:`run_sentinel` turns them into an enforced gate by
comparing freshly produced copies against the baselines with per-metric
tolerance bands and returning a machine-readable verdict (wired as
``tsajs obs sentinel`` and the ``obs-dist-smoke`` CI job).

Only **machine-independent** metrics are enforced.  Absolute timings
(``*_us_per_eval``, ``reference_ms``, ``cluster_solve_mean_s``, ...)
vary with the host and are reported informationally; the enforced bands
cover:

* ``speedup`` ratios (e.g. delta vs full) — relative change
  must not drop more than the ratio tolerance;
* ``*_overhead_pct`` (telemetry overhead) — must not worsen by more
  than the point tolerance (absolute percentage points);
* correctness booleans (``values_identical``, ``outcomes_identical``)
  — must match exactly.

Nested documents (the ``scales`` list in BENCH_shard) are
flattened into dotted paths (``scales[0].speedup_vs_full``) and each
leaf classified by its terminal key name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: The baseline files the sentinel guards, relative to a directory.
DEFAULT_BENCH_FILES: Tuple[str, ...] = (
    "BENCH_delta.json",
    "BENCH_obs.json",
    "BENCH_shard.json",
)

#: Default relative tolerance for ratio metrics (speedups), in percent.
#: Deliberately generous: CI runners are noisy and the bench suite pins
#: its own hard floors; the sentinel catches *drift*, not jitter.
DEFAULT_RATIO_TOLERANCE_PCT = 40.0

#: Default tolerance for ``*_pct`` metrics, in absolute percentage points.
DEFAULT_POINT_TOLERANCE = 10.0


@dataclass(frozen=True)
class Check:
    """One compared metric with its band and outcome."""

    file: str
    metric: str
    baseline: Any
    current: Any
    band: str  # "ratio" | "points" | "exact" | "info"
    tolerance: Optional[float]
    status: str  # "pass" | "fail" | "info"
    detail: str = ""

    def to_payload(self) -> Dict[str, Any]:
        return {
            "file": self.file,
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "band": self.band,
            "tolerance": self.tolerance,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass
class SentinelReport:
    """Machine-readable verdict over every compared BENCH file."""

    checks: List[Check] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        failed = any(check.status == "fail" for check in self.checks)
        return "fail" if (failed or self.errors) else "pass"

    @property
    def n_enforced(self) -> int:
        return sum(1 for check in self.checks if check.band != "info")

    def failures(self) -> List[Check]:
        return [check for check in self.checks if check.status == "fail"]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "verdict": self.verdict,
            "n_checks": len(self.checks),
            "n_enforced": self.n_enforced,
            "errors": list(self.errors),
            "checks": [check.to_payload() for check in self.checks],
        }


def _flatten(payload: Any, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    """Leaves of a nested JSON document as ``(dotted.path, value)``."""
    if isinstance(payload, dict):
        for key in sorted(payload):
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from _flatten(payload[key], path)
    elif isinstance(payload, list):
        for index, item in enumerate(payload):
            yield from _flatten(item, f"{prefix}[{index}]")
    else:
        yield prefix, payload


def _leaf_key(path: str) -> str:
    """The terminal key of a dotted path (``scales[0].speedup`` → ``speedup``)."""
    tail = path.rsplit(".", 1)[-1]
    return tail.split("[", 1)[0]


def classify_metric(path: str, value: Any) -> Tuple[str, Optional[float]]:
    """The tolerance band for one leaf: ``(band, tolerance)``.

    ``ratio`` bands return the relative tolerance in percent, ``points``
    bands the absolute percentage-point budget, ``exact`` and ``info``
    return ``None``.
    """
    key = _leaf_key(path)
    if isinstance(value, bool):
        return "exact", None
    if not isinstance(value, (int, float)):
        return "info", None
    if "speedup" in key:
        return "ratio", DEFAULT_RATIO_TOLERANCE_PCT
    if key.endswith("_overhead_pct"):
        return "points", DEFAULT_POINT_TOLERANCE
    return "info", None


def compare_documents(
    file_label: str,
    baseline: Any,
    current: Any,
    ratio_tolerance_pct: float = DEFAULT_RATIO_TOLERANCE_PCT,
    point_tolerance: float = DEFAULT_POINT_TOLERANCE,
) -> List[Check]:
    """Per-metric checks for one baseline/current document pair."""
    base_leaves = dict(_flatten(baseline))
    curr_leaves = dict(_flatten(current))
    checks: List[Check] = []
    for path in sorted(base_leaves):
        base_value = base_leaves[path]
        band, _ = classify_metric(path, base_value)
        if band == "info":
            if path in curr_leaves:
                checks.append(
                    Check(
                        file=file_label,
                        metric=path,
                        baseline=base_value,
                        current=curr_leaves[path],
                        band="info",
                        tolerance=None,
                        status="info",
                    )
                )
            continue
        if path not in curr_leaves:
            checks.append(
                Check(
                    file=file_label,
                    metric=path,
                    baseline=base_value,
                    current=None,
                    band=band,
                    tolerance=None,
                    status="fail",
                    detail="metric missing from current document",
                )
            )
            continue
        curr_value = curr_leaves[path]
        if band == "exact":
            status = "pass" if curr_value == base_value else "fail"
            detail = "" if status == "pass" else (
                f"expected {base_value!r}, got {curr_value!r}"
            )
            checks.append(
                Check(
                    file=file_label,
                    metric=path,
                    baseline=base_value,
                    current=curr_value,
                    band="exact",
                    tolerance=None,
                    status=status,
                    detail=detail,
                )
            )
            continue
        if not isinstance(curr_value, (int, float)) or isinstance(curr_value, bool):
            checks.append(
                Check(
                    file=file_label,
                    metric=path,
                    baseline=base_value,
                    current=curr_value,
                    band=band,
                    tolerance=None,
                    status="fail",
                    detail=f"expected a number, got {type(curr_value).__name__}",
                )
            )
            continue
        if band == "ratio":
            floor = float(base_value) * (1.0 - ratio_tolerance_pct / 100.0)
            status = "pass" if float(curr_value) >= floor else "fail"
            detail = "" if status == "pass" else (
                f"{curr_value} fell below {floor:.4g} "
                f"(baseline {base_value} - {ratio_tolerance_pct:.0f}%)"
            )
            checks.append(
                Check(
                    file=file_label,
                    metric=path,
                    baseline=base_value,
                    current=curr_value,
                    band="ratio",
                    tolerance=ratio_tolerance_pct,
                    status=status,
                    detail=detail,
                )
            )
        else:  # points: higher overhead is worse
            ceiling = float(base_value) + point_tolerance
            status = "pass" if float(curr_value) <= ceiling else "fail"
            detail = "" if status == "pass" else (
                f"{curr_value} exceeded {ceiling:.4g} "
                f"(baseline {base_value} + {point_tolerance:.0f} points)"
            )
            checks.append(
                Check(
                    file=file_label,
                    metric=path,
                    baseline=base_value,
                    current=curr_value,
                    band="points",
                    tolerance=point_tolerance,
                    status=status,
                    detail=detail,
                )
            )
    return checks


def run_sentinel(
    current_dir: Union[str, Path],
    baseline_dir: Union[str, Path],
    files: Optional[Tuple[str, ...]] = None,
    ratio_tolerance_pct: float = DEFAULT_RATIO_TOLERANCE_PCT,
    point_tolerance: float = DEFAULT_POINT_TOLERANCE,
) -> SentinelReport:
    """Compare every BENCH file under ``current_dir`` against its baseline.

    A baseline file that exists but has no current counterpart (or
    either side failing to parse) is an error, not a silent skip — a
    sentinel that cannot see the benchmark must not report green.
    """
    current_root = Path(current_dir)
    baseline_root = Path(baseline_dir)
    report = SentinelReport()
    for name in files if files is not None else DEFAULT_BENCH_FILES:
        baseline_path = baseline_root / name
        current_path = current_root / name
        if not baseline_path.exists():
            report.errors.append(f"{name}: baseline missing ({baseline_path})")
            continue
        if not current_path.exists():
            report.errors.append(f"{name}: current file missing ({current_path})")
            continue
        try:
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            report.errors.append(f"{name}: baseline unreadable: {exc}")
            continue
        try:
            current = json.loads(current_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            report.errors.append(f"{name}: current unreadable: {exc}")
            continue
        report.checks.extend(
            compare_documents(
                name,
                baseline,
                current,
                ratio_tolerance_pct=ratio_tolerance_pct,
                point_tolerance=point_tolerance,
            )
        )
    return report


def render_report(report: SentinelReport) -> str:
    """Human-readable sentinel summary (one line per enforced metric)."""
    lines: List[str] = []
    for error in report.errors:
        lines.append(f"ERROR  {error}")
    for check in report.checks:
        if check.band == "info":
            continue
        mark = {"pass": "ok", "fail": "FAIL"}.get(check.status, check.status)
        band = (
            f"{check.band}±{check.tolerance:g}"
            if check.tolerance is not None
            else check.band
        )
        line = (
            f"{mark:5s} {check.file}:{check.metric} "
            f"baseline={check.baseline} current={check.current} [{band}]"
        )
        if check.detail:
            line += f" — {check.detail}"
        lines.append(line)
    lines.append(
        f"verdict: {report.verdict} "
        f"({report.n_enforced} enforced, "
        f"{len(report.checks) - report.n_enforced} informational, "
        f"{len(report.failures())} failed, {len(report.errors)} errors)"
    )
    return "\n".join(lines)
