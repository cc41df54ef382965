"""Cross-run regression diffing (``repro.obs.diff``): artifact
sniffing, flatteners, section diffs, the ``repro.diff/1`` report and
its validator, the ``query diff`` CLI, and the benchmarks
``compare_runs.py`` pairwise/trend driver."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.diff import (
    DIFF_SCHEMA,
    build_report,
    diff_profile,
    diff_runs,
    diff_scalars,
    diff_timeseries,
    flatten_generic,
    flatten_metrics,
    flatten_profile,
    is_wall_metric,
    render_report,
    section_is_zero,
    sniff_kind,
    validate_report,
    write_report,
)

REPO = Path(__file__).resolve().parent.parent


def profile_doc(wall_by_label, total=1.0):
    return {
        "schema": "repro.profile/1",
        "total_wall_s": total,
        "events": 100,
        "entries": [
            {"label": label, "count": 10, "wall_s": wall}
            for label, wall in sorted(wall_by_label.items())
        ],
    }


def timeseries_doc(points_by_series, interval=1e-6):
    return {
        "schema": "repro.timeseries/2",
        "interval": interval,
        "series": [
            {"name": name, "labels": {}, "points": points}
            for name, points in sorted(points_by_series.items())
        ],
    }


def metrics_doc(values_by_link):
    return {
        "link.bytes": {
            "kind": "counter",
            "label_names": ["link"],
            "series": [
                {"labels": {"link": link}, "value": value}
                for link, value in sorted(values_by_link.items())
            ],
        }
    }


# ---------------------------------------------------------------------------
# sniffing + flattening
# ---------------------------------------------------------------------------


class TestSniffAndFlatten:
    def test_sniff_each_family(self):
        assert sniff_kind(profile_doc({})) == "profile"
        assert sniff_kind(timeseries_doc({})) == "timeseries"
        assert sniff_kind(metrics_doc({"a": 1})) == "metrics"
        assert sniff_kind({"x": 1, "y": 2.5}) == "scalars"
        assert sniff_kind({"schema": "repro.flight/1"}) == "generic"
        assert sniff_kind([1, 2]) == "generic"

    def test_wall_markers(self):
        assert is_wall_metric("total_wall_s")
        assert is_wall_metric("fig4_events_per_sec")
        assert is_wall_metric("parse.avg_us")
        assert not is_wall_metric("events")
        assert not is_wall_metric("link.bytes")

    def test_flatten_metrics_labels_and_histograms(self):
        snap = metrics_doc({"h0<->s1": 640})
        snap["lat"] = {
            "kind": "histogram",
            "label_names": [],
            "series": [{
                "labels": {},
                "value": {
                    "count": 4, "sum": 0.1,
                    "buckets": {"0.001": 2, "+Inf": 2},
                },
            }],
        }
        flat = flatten_metrics(snap)
        assert flat["link.bytes{link=h0<->s1}"] == 640
        assert flat["lat.count"] == 4
        assert flat["lat.buckets.le=+Inf"] == 2

    def test_flatten_metrics_surfaces_overflow(self):
        snap = metrics_doc({"a": 1})
        snap["link.bytes"]["overflow_routed"] = 3
        assert flatten_metrics(snap)["link.bytes.__overflow_routed__"] == 3

    def test_flatten_profile(self):
        flat = flatten_profile(profile_doc({"parse": 0.25}))
        assert flat["total_wall_s"] == 1.0
        assert flat["entry{parse}.wall_s"] == 0.25
        assert flat["entry{parse}.count"] == 10

    def test_flatten_generic_skips_bools_and_strings(self):
        flat = flatten_generic({
            "a": {"b": 1}, "ok": True, "name": "x",
            "list": [1.5, {"c": 2}],
        })
        assert flat == {"a.b": 1, "list[0]": 1.5, "list[1].c": 2}


# ---------------------------------------------------------------------------
# section diffs
# ---------------------------------------------------------------------------


class TestSectionDiffs:
    def test_diff_scalars_changed_added_removed(self):
        out = diff_scalars(
            {"same": 1, "moved": 10, "gone": 5},
            {"same": 1, "moved": 15, "fresh": 2},
        )
        assert out["unchanged"] == 1
        [changed] = out["changed"]
        assert changed == {
            "key": "moved", "a": 10, "b": 15, "delta": 5, "pct": 50.0,
        }
        assert out["added"] == [{"key": "fresh", "b": 2}]
        assert out["removed"] == [{"key": "gone", "a": 5}]

    def test_wall_clock_keys_are_tagged_and_ignored_by_zero(self):
        out = diff_scalars({"x_per_sec": 100.0}, {"x_per_sec": 120.0})
        assert out["changed"][0]["wall_clock"] is True
        out["kind"] = "scalars"
        assert section_is_zero(out)

    def test_diff_profile_ranks_regressions(self):
        a = profile_doc({"parse": 0.1, "act": 0.2, "route": 0.3})
        b = profile_doc({"parse": 0.4, "act": 0.25, "route": 0.2})
        out = diff_profile(a, b, top=2)
        labels = [e["label"] for e in out["top_regressed"]]
        assert labels == ["parse", "act"]  # biggest wall growth first
        assert out["top_regressed"][0]["delta_wall_s"] == pytest.approx(0.3)
        assert out["top_regressed"][0]["pct"] == pytest.approx(300.0)

    def test_diff_timeseries_divergence(self):
        a = timeseries_doc({"drops": [[0, 0], [1, 2], [2, 2]]})
        b = timeseries_doc({"drops": [[0, 0], [1, 2], [2, 7]],
                            "retx": [[0, 1]]})
        out = diff_timeseries(a, b)
        [changed] = out["changed"]
        assert changed["key"] == "drops"
        assert changed["first_divergence"] == 2
        assert changed["max_divergence"] == 5
        assert changed["a"] == 2 and changed["b"] == 7
        assert out["added"] == [{"key": "retx"}]

    def test_diff_timeseries_identical_is_quiet(self):
        doc = timeseries_doc({"drops": [[0, 0], [3, 1]]})
        out = diff_timeseries(doc, json.loads(json.dumps(doc)))
        assert out["changed"] == [] and out["unchanged"] >= 1


# ---------------------------------------------------------------------------
# the report: build, validate, render, determinism
# ---------------------------------------------------------------------------


class TestReport:
    def _report(self, a_val=1, b_val=1):
        return build_report(
            [("metrics", "scalars", {"x": a_val}, {"x": b_val})],
            a_label="runA", b_label="runB",
        )

    def test_zero_delta_and_counts(self):
        zero = self._report()
        assert zero["schema"] == DIFF_SCHEMA
        assert zero["zero_delta"] is True
        assert zero["changed_total"] == 0
        hot = self._report(1, 2)
        assert hot["zero_delta"] is False
        assert hot["changed_total"] == 1

    def test_identical_inputs_byte_identical_reports(self):
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_report(self._report(3, 4), buf1)
        write_report(self._report(3, 4), buf2)
        assert buf1.getvalue() == buf2.getvalue()
        assert buf1.getvalue().endswith("\n")

    def test_validate_accepts_good_report(self):
        assert validate_report(self._report(1, 2)) == []

    def test_validate_flags_problems(self):
        assert validate_report([]) == ["report is not an object"]
        report = self._report()
        report["schema"] = "repro.diff/0"
        assert any("schema" in p for p in validate_report(report))
        report = self._report()
        del report["sections"]
        assert any("sections" in p for p in validate_report(report))
        report = self._report(1, 2)
        report["zero_delta"] = True  # lies about its own contents
        assert any("zero_delta" in p for p in validate_report(report))
        report = self._report()
        report["sections"]["metrics"]["kind"] = "mystery"
        assert any("unknown kind" in p for p in validate_report(report))

    def test_render_mentions_zero_delta_and_changes(self):
        assert "zero-delta" in render_report(self._report())
        text = render_report(self._report(10, 12))
        assert "x: 10 -> 12" in text and "(+20%)" in text

    def test_render_shows_top_regressed(self):
        report = build_report([(
            "profile", "profile",
            profile_doc({"parse": 0.1}), profile_doc({"parse": 0.5}),
        )])
        assert "regressed: parse" in render_report(report)


# ---------------------------------------------------------------------------
# loading runs from disk + the CLI surfaces
# ---------------------------------------------------------------------------


def _write_run(run_dir: Path, wall, drops):
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "fig4.profile.json").write_text(
        json.dumps(profile_doc({"parse": wall}))
    )
    (run_dir / "fig4.metrics.json").write_text(
        json.dumps(metrics_doc({"h0<->s1": drops}))
    )


class TestDiffRuns:
    def test_single_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"x": 1}))
        b.write_text(json.dumps({"x": 2}))
        report = diff_runs(str(a), str(b))
        assert report["a"] == str(a)
        assert report["sections"]["scalars"]["changed"][0]["delta"] == 1

    def test_directories_pair_by_artifact_name(self, tmp_path):
        # the wall_s move is wall-clock-tagged (still zero-delta); the
        # link-bytes move is deterministic and breaks it
        _write_run(tmp_path / "a", wall=0.1, drops=3)
        _write_run(tmp_path / "b", wall=0.2, drops=8)
        report = diff_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert set(report["sections"]) == {
            "fig4.profile.json", "fig4.metrics.json"
        }
        assert section_is_zero(report["sections"]["fig4.profile.json"])
        assert not section_is_zero(report["sections"]["fig4.metrics.json"])
        assert report["zero_delta"] is False

    def test_section_only_in_one_run_still_diffs(self, tmp_path):
        _write_run(tmp_path / "a", wall=0.1, drops=3)
        _write_run(tmp_path / "b", wall=0.1, drops=3)
        (tmp_path / "b" / "extra.results.json").write_text(
            json.dumps({"new_metric": 9})
        )
        report = diff_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        section = report["sections"]["extra.results.json"]
        assert section["added"] == [{"key": "new_metric", "b": 9}]
        assert report["zero_delta"] is False

    def test_empty_dir_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError, match="no diffable"):
            diff_runs(str(tmp_path / "empty"), str(tmp_path / "empty"))


class TestQueryDiffCli:
    def _runs(self, tmp_path, b_drops=3):
        _write_run(tmp_path / "a", wall=0.1, drops=3)
        _write_run(tmp_path / "b", wall=0.1, drops=b_drops)
        return str(tmp_path / "a"), str(tmp_path / "b")

    def test_text_mode_zero_delta(self, tmp_path, capsys):
        from repro.obs.query import main

        a, b = self._runs(tmp_path)
        assert main(["diff", a, b]) == 0
        assert "zero-delta" in capsys.readouterr().out

    def test_json_output_validates(self, tmp_path, capsys):
        from repro.obs.query import main

        a, b = self._runs(tmp_path, b_drops=9)
        out_path = tmp_path / "report.json"
        assert main(["diff", a, b, "--json", "-o", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert validate_report(report) == []
        assert report["zero_delta"] is False

    def test_fail_on_delta_exit_codes(self, tmp_path, capsys):
        from repro.obs.query import main

        a, b = self._runs(tmp_path)
        assert main(["diff", a, b, "--fail-on-delta"]) == 0
        a, b = self._runs(tmp_path, b_drops=9)
        assert main(["diff", a, b, "--fail-on-delta"]) == 1


class TestCompareRuns:
    """The benchmarks/compare_runs.py driver, exercised as a CLI."""

    SCRIPT = REPO / "benchmarks" / "compare_runs.py"

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *argv],
            capture_output=True, text=True, cwd=str(REPO),
        )

    def _history(self, tmp_path, series):
        ledger = tmp_path / "history"
        ledger.mkdir()
        for i, measured in enumerate(series):
            (ledger / f"run-{i:04d}.json").write_text(
                json.dumps({"measured": measured, "profile": {}})
            )
        return ledger

    def test_pairwise_fail_on_delta(self, tmp_path):
        _write_run(tmp_path / "a", wall=0.1, drops=3)
        _write_run(tmp_path / "b", wall=0.1, drops=8)
        proc = self._run(str(tmp_path / "a"), str(tmp_path / "b"),
                         "--fail-on-delta")
        assert proc.returncode == 1, proc.stderr
        assert "link.bytes{link=h0<->s1}: 3 -> 8" in proc.stdout

    def test_trend_table_and_passing_gate(self, tmp_path):
        ledger = self._history(tmp_path, [
            {"fig4_bytes": 100, "fig4_events_per_sec": 5000.0},
            {"fig4_bytes": 100, "fig4_events_per_sec": 9000.0},
        ])
        proc = self._run("--trend", str(ledger), "--gate", "10")
        assert proc.returncode == 0, proc.stderr
        assert "trend over 2 runs" in proc.stdout
        # wall-clock metrics are flagged and never trip the gate
        assert "wall-clock" in proc.stdout
        assert "trend gate passed" in proc.stdout

    def test_trend_gate_trips_on_deterministic_drift(self, tmp_path):
        ledger = self._history(tmp_path, [
            {"fig4_bytes": 100}, {"fig4_bytes": 150},
        ])
        proc = self._run("--trend", str(ledger), "--gate", "10")
        assert proc.returncode == 1
        assert "trend gate FAILED" in proc.stderr
        assert "fig4_bytes: 100 -> 150" in proc.stderr

    def test_trend_gate_uses_newest_pair_only(self, tmp_path):
        # the old outlier (run 0) must not trip a gate on runs 1 -> 2
        ledger = self._history(tmp_path, [
            {"fig4_bytes": 999}, {"fig4_bytes": 100}, {"fig4_bytes": 101},
        ])
        proc = self._run("--trend", str(ledger), "--gate", "5")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_trend_needs_two_runs(self, tmp_path):
        ledger = self._history(tmp_path, [{"x": 1}])
        proc = self._run("--trend", str(ledger))
        assert proc.returncode != 0
        assert "at least 2 runs" in proc.stderr
