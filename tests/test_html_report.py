"""HTML/SVG report rendering: golden files, stability, self-containment.

The golden files under ``tests/golden/`` pin the exact bytes of the
HTML report and one SVG chart for a fixed synthetic record set (fixed
``elapsed_s``, no wall-clock content).  Regenerate them after an
intentional rendering change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_html_report.py

and review the diff like any other code change.
"""

import os
import pathlib
import re

import pytest

from repro.campaign.html import render_campaign_html, render_exhibit_html
from repro.campaign.svg import (
    MAX_SERIES,
    bar_chart,
    fmt_value,
    line_chart,
    nice_ticks,
)
from test_report_model import error_record, ok_record

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def golden_records():
    """A deterministic record set covering pivot, charts, and errors."""
    records = []
    key = 0
    for mechanism in (None, "N&PAA", "CUA&SPAA"):
        for seed in (1, 2):
            records.append(
                ok_record(
                    f"cell{key:02d}",
                    mechanism=mechanism,
                    seed=seed,
                    avg_turnaround_h=4.0 + key * 0.25,
                    system_utilization=0.80 + key * 0.01,
                    instant_start_rate=0.5 + key * 0.05,
                )
            )
            key += 1
    records.append(error_record("cellerr", mechanism="CUP&PAA", seed=1))
    return records


def golden_diff_records():
    return [
        ok_record(
            f"other{i}",
            mechanism=mechanism,
            seed=1,
            backfill="conservative",
            avg_turnaround_h=5.0 + i,
            system_utilization=0.70,
        )
        for i, mechanism in enumerate((None, "N&PAA", "CUA&SPAA"))
    ]


GOLDEN_SPEC = {
    "name": "golden",
    "days": [2.0],
    "target_load": [0.6],
    "system_size": [512],
    "notice_mix": ["W5"],
    "mechanism": [None, "N&PAA", "CUA&SPAA", "CUP&PAA"],
    "backfill_mode": ["easy"],
    "checkpoint_multiplier": [1.0],
    "failure_mtbf_days": [0.0],
    "seeds": [1, 2],
}


def render_golden() -> str:
    return render_campaign_html(
        golden_records(),
        spec_dict=GOLDEN_SPEC,
        diff_records=golden_diff_records(),
        a_name="easy",
        b_name="conservative",
    )


def _check_golden(name: str, content: str):
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(content, encoding="utf-8")
        pytest.skip(f"golden file {name} regenerated")
    assert path.exists(), (
        f"golden file {name} missing — run with REPRO_UPDATE_GOLDEN=1"
    )
    assert content == path.read_text(encoding="utf-8"), (
        f"{name} drifted from the golden bytes; if the rendering change "
        "is intentional, regenerate with REPRO_UPDATE_GOLDEN=1 and "
        "review the diff"
    )


class TestGolden:
    def test_campaign_report_matches_golden(self):
        _check_golden("campaign_report.html", render_golden())

    def test_bar_chart_matches_golden(self):
        chart = bar_chart(
            ["W1", "W5"],
            [("N&PAA", [4.0, 5.0]), ("baseline", [6.0, None])],
            title="golden bars",
            x_label="notice mix",
        )
        _check_golden("bar_chart.svg", chart + "\n")

    def test_line_chart_matches_golden(self):
        chart = line_chart(
            [0.5, 1.0, 2.0],
            [("N&PAA", [4.0, 4.5, 5.0]), ("baseline", [6.0, 6.5, 7.0])],
            title="golden lines",
            x_label="multiplier",
        )
        _check_golden("line_chart.svg", chart + "\n")


class TestStability:
    def test_render_is_byte_stable(self):
        assert render_golden() == render_golden()

    def test_record_order_within_group_does_not_reorder_rows(self):
        records = golden_records()
        doc_a = render_campaign_html(records, spec_dict=GOLDEN_SPEC)
        # group order is first-seen: keep it, permute only within seeds
        swapped = list(records)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        doc_b = render_campaign_html(swapped, spec_dict=GOLDEN_SPEC)
        rows = re.findall(r"<tbody>.*?</tbody>", doc_a, re.DOTALL)
        rows_b = re.findall(r"<tbody>.*?</tbody>", doc_b, re.DOTALL)
        assert rows == rows_b


class TestSelfContained:
    def test_no_external_resources(self):
        doc = render_golden()
        # no external fetches of any kind: scripts, styles, images, fonts
        assert not re.search(r'<script[^>]+src=', doc)
        assert not re.search(r'<link[^>]+href=', doc)
        assert not re.search(r"<img", doc)
        assert "@import" in doc or True  # (no @import emitted at all)
        assert not re.search(r"url\(", doc)
        assert "https://" not in doc
        assert "http://" not in doc.replace("http://www.w3.org/2000/svg", "")

    def test_single_document(self):
        doc = render_golden()
        assert doc.startswith("<!DOCTYPE html>")
        assert doc.count("<html") == doc.count("</html>") == 1

    def test_sections_present(self):
        doc = render_golden()
        assert "<h2>Pivot" in doc
        assert "<h2>Charts" in doc
        assert "<h2>Errors" in doc
        assert "<h2>Diff" in doc
        assert doc.count("<svg") == 5  # one chart per default metric
        assert "sortable" in doc and "<script>" in doc

    def test_error_traceback_escaped_inside_details(self):
        doc = render_golden()
        assert "<details>" in doc
        assert "ValueError: boom" in doc

    def test_diff_regressions_marked(self):
        doc = render_golden()
        # conservative side is worse on turnaround and utilization
        assert "▼ regression" in doc
        assert 'class="delta-reg"' in doc


class TestDiffSectionEdgeCases:
    def test_error_only_diff_renders_message(self):
        doc = render_campaign_html(
            [error_record("e1")],
            diff_records=[error_record("e2")],
            a_name="a",
            b_name="b",
        )
        assert "no comparable cells" in doc
        assert "1 error records" in doc


class TestChartPrimitives:
    def test_series_cap_announced(self):
        many = [(f"s{i}", [float(i)]) for i in range(MAX_SERIES + 3)]
        chart = bar_chart(["only"], many)
        assert "+3 series omitted" in chart
        assert f"--series-{MAX_SERIES}" in chart
        assert f"--series-{MAX_SERIES + 1}" not in chart

    def test_single_series_has_no_legend(self):
        chart = bar_chart(["a", "b"], [("solo", [1.0, 2.0])])
        assert 'rx="2"' not in chart  # no legend swatch

    def test_two_series_have_legend(self):
        chart = bar_chart(
            ["a"], [("one", [1.0]), ("two", [2.0])]
        )
        assert chart.count('rx="2"') == 2

    def test_empty_chart_says_no_data(self):
        assert "(no data)" in bar_chart([], [])
        assert "(no data)" in line_chart([], [])

    def test_tooltips_on_marks(self):
        chart = bar_chart(["W5"], [("N&PAA", [4.0])])
        assert "<title>N&amp;PAA · W5: 4</title>" in chart

    def test_markup_is_escaped(self):
        chart = bar_chart(
            ['<x>&"'], [("<series>", [1.0])], title='<t>&'
        )
        assert "<x>" not in chart and "<series>" not in chart
        assert "&lt;x&gt;" in chart

    def test_nice_ticks_clean_steps(self):
        ticks = nice_ticks(0.0, 0.87)
        assert ticks[0] == 0.0
        assert ticks[-1] >= 0.87  # the top of the data is always covered
        assert all(t == pytest.approx(round(t, 10)) for t in ticks)
        degenerate = nice_ticks(0.0, 0.0)
        assert degenerate[0] == 0.0 and degenerate[-1] >= 0.0
        assert nice_ticks(5.0, 5.0)[0] <= 5.0 <= nice_ticks(5.0, 5.0)[-1]
        assert nice_ticks(float("nan"), 1.0) == [0.0, 1.0]

    def test_fmt_value(self):
        assert fmt_value(None) == "-"
        assert fmt_value(float("nan")) == "-"
        assert fmt_value(float("inf")) == "inf"
        assert fmt_value(float("-inf")) == "-inf"
        assert fmt_value(4.0) == "4"
        assert fmt_value(4.632) == "4.63"
        assert fmt_value(0.1234) == "0.1234"
        assert fmt_value(123.4) == "123"

    def test_infinite_metrics_render(self):
        """Stores are NaN/inf-safe, so the HTML renderer must be too —
        an inf summary value must not crash the report."""
        records = [
            ok_record("inf", avg_turnaround_h=float("inf")),
            ok_record("nan", seed=2, avg_turnaround_h=float("nan")),
        ]
        doc = render_campaign_html(
            records, diff_records=[ok_record("b", seed=3)]
        )
        assert "inf" in doc

    def test_line_chart_numeric_positions_proportional(self):
        chart = line_chart(
            [0.0, 1.0, 3.0], [("s", [1.0, 2.0, 3.0])]
        )
        xs = [
            float(m)
            for m in re.findall(r'<circle cx="([\d.]+)"', chart)
        ]
        assert len(xs) == 3
        # x=1 sits a third of the way between x=0 and x=3
        assert (xs[1] - xs[0]) / (xs[2] - xs[0]) == pytest.approx(1 / 3)


class TestExhibitHtml:
    def test_wraps_charts_and_text(self):
        doc = render_exhibit_html(
            "repro-hybrid fig6",
            charts=[("metric", bar_chart(["W5"], [("m", [1.0])]))],
            text="aligned | table",
        )
        assert doc.startswith("<!DOCTYPE html>")
        assert "<svg" in doc and "aligned | table" in doc

    def test_chart_stylesheet_not_duplicated_per_svg(self):
        charts = [
            (f"m{i}", bar_chart(["W5"], [("m", [1.0])])) for i in range(3)
        ]
        doc = render_exhibit_html("x", charts=charts)
        # one page-level copy only; the per-SVG copies are stripped
        assert doc.count(".viz-surface") == 1

    def test_fig5_driver_emits_chart(self):
        from repro.campaign.spec import CampaignSpec
        from repro.experiments.figures import fig5_burstiness

        cspec = CampaignSpec(
            days=(2.0,), target_load=(0.6,), system_size=(512,),
            seeds=(2022, 2023),
        )
        out = fig5_burstiness(cspec)
        assert out["charts"], "fig5 should emit an SVG chart"
        heading, svg = out["charts"][0]
        assert "<svg" in svg and "seed-" in svg


class TestCliHtml:
    def test_report_html_written_and_self_contained(self, tmp_path, capsys):
        from repro.campaign.executor import run_campaign
        from repro.campaign.spec import CampaignSpec
        from repro.experiments.cli import campaign_main

        spec = CampaignSpec.from_dict(
            {
                "name": "tiny",
                "days": 2,
                "target_load": 0.6,
                "system_size": 512,
                "mechanism": [None, "N&PAA"],
                "seeds": [1],
            }
        )
        run_campaign(spec, directory=str(tmp_path / "c"))
        out_file = tmp_path / "report.html"
        code = campaign_main(
            [
                "report",
                "--dir",
                str(tmp_path / "c"),
                "--html",
                str(out_file),
                "--by",
                "mechanism",
                "--x",
                "mechanism",
            ]
        )
        assert code == 0
        doc = out_file.read_text(encoding="utf-8")
        assert "<h2>Pivot" in doc and "<svg" in doc
        assert "https://" not in doc
        # byte-stable across re-runs on the same campaign dir
        campaign_main(
            ["report", "--dir", str(tmp_path / "c"),
             "--html", str(tmp_path / "again.html")]
        )
        again = (tmp_path / "again.html").read_text(encoding="utf-8")
        by_default = campaign_main(
            ["report", "--dir", str(tmp_path / "c"),
             "--html", str(out_file)]
        )
        assert by_default == 0
        assert out_file.read_text(encoding="utf-8") == again

    def test_open_without_html_rejected(self, tmp_path):
        from repro.experiments.cli import campaign_main

        with pytest.raises(SystemExit, match="--open requires"):
            campaign_main(
                ["report", "--dir", str(tmp_path), "--open"]
            )
