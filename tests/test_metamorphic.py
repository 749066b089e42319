"""Metamorphic relations of the kernel walks.

A differential test checks a walk against a reference by the same
authors, so both can share a mistake. A metamorphic relation needs no
reference: it states how the forecasts must change when the station
changes (Chen et al. 2018, *ACM Comput. Surv.* 51(1)). On the stations
generated here each relation holds exactly in binary floating point, so
forecasts compare as int64 views:

* values x 2 give forecasts x 2: the weights depend on the epochs alone,
  and doubling every operand of a sum of products doubles each rounded
  step, away from overflow and subnormals;
* permuting X, Y and Z permutes the forecasts alike;
* epochs + 1,000 days give the same forecasts: every epoch is a multiple
  of half a day and stays inside the spacing guard, so the shift and
  every distance are exact.

Theta's values x 2 relation fails today, since its theta is a slope in
meters per step; it waits for the decision on what theta is.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnss_grnn import BandwidthRule, GrnnConfig, Mode, StationSeries, forecast_series

#: derandomized, so tier-1 runs the same examples every time; per bandwidth
RELATION = settings(max_examples=40, deadline=None, derandomize=True)
BANDWIDTHS = pytest.mark.parametrize(
    "bandwidth", [BandwidthRule.WINDOW_STD, BandwidthRule.MEAN_SPACING, 2.0])


@st.composite
def station_walks(draw, bandwidth):
    """A station, a kernel configuration at ``bandwidth`` and the modes to
    walk it in.

    Epoch spacings of 0.5-3 days keep every target's nearest kernels far
    from underflow under each bandwidth, and values are multiples of
    2**-10 m about a coordinate-sized offset or zero, so no product in a
    walk nears the subnormal range."""
    n = draw(st.integers(min_value=3, max_value=40))
    v = draw(st.integers(min_value=1, max_value=min(8, n - 1)))
    spacings = draw(st.lists(st.sampled_from([0.5, 1.0, 1.0, 1.0, 2.0, 3.0]),
                             min_size=n - 1, max_size=n - 1))
    # MJD 65536 is 2**16, where an epoch's ulp doubles: a shift across it
    # changes the bits of any arithmetic on the epochs themselves
    start = draw(st.sampled_from([55000.0, 65000.0]))
    epochs = start + np.concatenate([[0.0], np.cumsum(spacings)])
    # anomalies more often than coordinates, whose offset rounds away
    # differences in the last bits of a window's weighted deviations
    offset = draw(st.sampled_from([0.0, 0.0, 4075000.25]))
    steps = draw(st.lists(st.integers(min_value=-2**12, max_value=2**12),
                          min_size=3 * n, max_size=3 * n))
    values = offset + np.cumsum(np.reshape(steps, (3, n)), axis=1) / 1024
    modes = draw(st.sampled_from([(Mode.RECURSIVE,), (Mode.TEACHER_FORCED,), tuple(Mode)]))
    return StationSeries("S", epochs, values), GrnnConfig(v, bandwidth), modes


def walk(epochs, values, config, modes):
    """The ``(modes, 3, n - v)`` forecasts of the station ``epochs``/``values``."""
    walks = forecast_series(StationSeries("S", epochs, values), config, modes)
    return np.stack([walks.predicted_m[mode] for mode in modes])


def assert_same_bits(got, want):
    # as int64 views, so that -0.0 and +0.0 differ
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@BANDWIDTHS
@given(data=st.data())
@RELATION
def test_doubled_values_double_the_forecasts(bandwidth, data):
    station, config, modes = data.draw(station_walks(bandwidth))
    forecasts = walk(station.epochs_mjd, station.values_m, config, modes)
    doubled = walk(station.epochs_mjd, 2.0 * station.values_m, config, modes)
    assert_same_bits(doubled, 2.0 * forecasts)


@BANDWIDTHS
@given(data=st.data())
@RELATION
def test_permuted_components_permute_the_forecasts(bandwidth, data):
    station, config, modes = data.draw(station_walks(bandwidth))
    order = data.draw(st.permutations([0, 1, 2]))
    forecasts = walk(station.epochs_mjd, station.values_m, config, modes)
    permuted = walk(station.epochs_mjd, station.values_m[order], config, modes)
    assert_same_bits(permuted, forecasts[:, order])


@BANDWIDTHS
@given(data=st.data())
@RELATION
def test_shifted_epochs_keep_the_forecasts(bandwidth, data):
    station, config, modes = data.draw(station_walks(bandwidth))
    forecasts = walk(station.epochs_mjd, station.values_m, config, modes)
    shifted = walk(station.epochs_mjd + 1000.0, station.values_m, config, modes)
    assert_same_bits(shifted, forecasts)
