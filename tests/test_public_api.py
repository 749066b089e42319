"""The package's public names."""

import pytest

import gnss_grnn


def test_every_export_resolves_once():
    names = gnss_grnn.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(gnss_grnn, name)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from gnss_grnn import *", namespace)
    assert set(gnss_grnn.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", ["ThetaModel", "estimate_theta", "fit_theta_model",
                                  "theta_forecast"])
def test_theta_backtest_is_the_only_theta_path(name):
    assert not hasattr(gnss_grnn, name)
    assert not hasattr(gnss_grnn.theta, name)
