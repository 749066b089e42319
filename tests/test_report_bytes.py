"""Byte pins of the report layer, fed hand-written criteria.

No backtest runs here, so the expected files under ``tests/golden/``
depend on neither BLAS nor the kernel arithmetic: they pin how
``compare_methods`` aggregates and divides, and what the JSON and CSV
writers print, including null ratios and a fixed timing block.
"""

import io
from pathlib import Path

import pytest

from gnss_grnn import (
    compare_methods,
    write_reports_csv,
    write_reports_json,
    write_sweep_csv,
)

GOLDEN = Path(__file__).with_name("golden")

# station id -> (grnn, theta) criteria per component: (sMAPE %, StD m, MAbs m)
_CRITERIA = {
    "ST01": (
        {"X": (1.25e-07, 0.0031, 0.0024), "Y": (3.5e-07, 0.0042, 0.0033),
         "Z": (2.0e-07, 0.0057, 0.0041)},
        {"X": (2.5e-06, 0.012, 0.0096), "Y": (1.4e-06, 0.021, 0.0165),
         "Z": (0.0, 0.0114, 0.0082)},
    ),
    # flat in Theta's X: every X ratio is undefined; Z's sMAPE is 0 for both
    # stations, so the aggregated Z sMAPE ratio is undefined too
    "ST02": (
        {"X": (1.0e-07, 0.0029, 0.0021), "Y": (0.0, 0.0, 0.0),
         "Z": (6.7e-08, 0.00123455, 0.0000005)},
        {"X": (0.0, 0.0, 0.0), "Y": (9.1e-07, 0.0015, 0.00112),
         "Z": (0.0, 0.0233, 0.0177)},
    ),
}

_TIMING = {
    "grnn_seconds": [0.31, 0.29, 0.305],
    "theta_seconds": [1.9, 2.1, 1.95],
    "grnn_median_s": 0.305,
    "theta_median_s": 1.95,
    "workload_predictions": 270,
    "theta_predictions": 255,
}

_SWEEP = (
    (2, "X", "recursive", 3.1e-08, 0.0123455, 0.0091, 48),
    (2, "X", "teacher-forced", 2.9e-08, 0.011, 0.0087, 48),
    (2, "Y", "recursive", 0.0, 0.0, 0.0, 48),
    (3, "Z", "teacher-forced", 1.23456789e-07, 1.234567891, 0.00000049, 47),
)


def _metrics(smape_percent, std_m, mabs_m, n):
    return {"smape_percent": smape_percent, "std_m": std_m, "mabs_m": mabs_m, "n": n}


def _sweep_row(v, component, mode, smape_percent, std_m, mabs_m, n):
    return {"v": v, "component": component, "mode": mode,
            **_metrics(smape_percent, std_m, mabs_m, n)}


def _settings(v, bandwidth, mode, theta_window, theta_fit, gap_factor):
    return {
        "grnn": {"training_size": v, "bandwidth": bandwidth, "threshold_m": None,
                 "max_training_size": None, "mode": mode},
        "theta": {"window": theta_window, "fit": theta_fit},
        "gap_factor": gap_factor,
    }


def _reports():
    settings = (
        _settings(25, "window-std", "recursive", 25, "rolling", 1.5),
        _settings(30, 2.5, "teacher-forced", 35, "global", 2.0),
    )
    spans = (
        (None, 55000.0, 55799.0, "2009-2011", "continuous", 0, 0.0, 50),
        ("DE", 56000.5, 57460.25, "2012-2016", "discontinuous", 2, 46.0, 40),
    )
    reports = []
    for (sid, (grnn, theta)), cfg, span in zip(_CRITERIA.items(), settings, spans):
        country, first, last, label, state, gap_count, largest, n = span
        reports.append({
            "station_id": sid, "country": country,
            "span": {"first_mjd": first, "last_mjd": last, "label": label},
            "state": state, "gap_count": gap_count, "largest_gap_days": largest,
            "n_predictions": n,
            "metrics": {
                "grnn": {c: _metrics(*grnn[c], n) for c in grnn},
                "theta": {c: _metrics(*theta[c], n) for c in theta},
            },
            "settings": cfg,
        })
    return reports


def render() -> dict[str, str]:
    """Every pinned output, by golden file name."""
    reports = _reports()
    out = {}
    buf = io.StringIO()
    write_reports_json(reports, compare_methods(reports, _TIMING), buf,
                       run={"seed": 7, "basis": "anomaly"})
    out["report_timed.json"] = buf.getvalue()
    buf = io.StringIO()
    write_reports_json(reports, compare_methods(reports), buf)
    out["report.json"] = buf.getvalue()
    buf = io.StringIO()
    write_reports_csv(reports, buf)
    out["stations.csv"] = buf.getvalue()
    buf = io.StringIO()
    write_sweep_csv([_sweep_row(*r) for r in _SWEEP], buf)
    out["sweep.csv"] = buf.getvalue()
    return out


@pytest.mark.parametrize("name", ["report_timed.json", "report.json", "stations.csv",
                                  "sweep.csv"])
def test_report_layer_bytes(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert render()[name] == expected
