"""The host-speed scaling arithmetic, on hand-made samples."""

import pytest

import hostspeed
from hostspeed import REF_S, SpeedProbe


def _probe(samples):
    probe = SpeedProbe()
    for start, seconds in samples:
        probe.starts.append(start)
        probe.seconds.append(seconds)
    return probe


def test_steady_reference_speed_leaves_time_less_probe():
    probe = _probe([(0.1 * k, REF_S) for k in range(1, 11)])
    speed, own = probe.window(0.0, 1.0)
    assert speed == pytest.approx(1.0)
    assert own == pytest.approx(10 * REF_S)
    assert probe.scaled(0.0, 1.0) == pytest.approx(1.0 - 10 * REF_S)


def test_speed_is_weighted_by_the_time_each_sample_stands_for():
    # 0.2 s at half speed (sample at 0.2), then 0.6 s at full speed.
    probe = _probe([(0.2, 2 * REF_S), (0.8, REF_S)])
    speed, _ = probe.window(0.0, 0.8)
    assert speed == pytest.approx((0.2 * 0.5 + 0.6 * 1.0) / 0.8)


def test_slow_host_scales_wall_time_down():
    probe = _probe([(0.5 * k, 1.5 * REF_S) for k in range(1, 5)])
    assert probe.scaled(0.0, 2.0) == pytest.approx(
        (2.0 - 4 * 1.5 * REF_S) / 1.5)


def test_window_without_sample_takes_the_last_one_before():
    probe = _probe([(0.0, 2 * REF_S), (1.0, REF_S)])
    assert probe.window(0.3, 0.4) == (pytest.approx(0.5), 0.0)
    with pytest.raises(ValueError):
        _probe([(1.0, REF_S)]).window(0.0, 0.5)


def test_timer_takes_samples_and_stops():
    probe = SpeedProbe().start()
    t0 = probe.clock()
    while probe.clock() - t0 < 10 * hostspeed.INTERVAL_S:
        pass
    probe.stop()
    taken = len(probe.seconds)
    assert taken >= 5
    assert probe.scaled(t0, probe.clock()) > 0
    t1 = probe.clock()
    while probe.clock() - t1 < 3 * hostspeed.INTERVAL_S:
        pass
    assert len(probe.seconds) == taken
