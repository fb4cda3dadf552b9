"""CampaignProgress: ETA from the fold, hit-rate accounting, output format."""

from __future__ import annotations

import io
from types import SimpleNamespace

from repro.obs.live import CampaignProgress
from repro.obs.stream import ETA_WINDOW


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _unit(label="E1/a"):
    return SimpleNamespace(label=label, key="k" + label)


class TestEta:
    def test_no_eta_until_two_computed_units(self):
        clock = FakeClock()
        progress = CampaignProgress(io.StringIO(), clock=clock)
        assert progress.fold.eta_seconds(10) is None
        progress(1, 10, _unit(), cached=False)
        assert progress.fold.eta_seconds(9) is None

    def test_eta_from_rolling_rate(self):
        clock = FakeClock()
        progress = CampaignProgress(io.StringIO(), clock=clock)
        # One computed unit every 2 seconds.
        for i in range(1, 4):
            clock.now = 2.0 * i
            progress(i, 10, _unit(), cached=False)
        # 3 marks over 4s -> rate 0.5 units/s; 7 remaining -> 14s.
        assert progress.fold.eta_seconds(7) == 14.0

    def test_eta_zero_when_done(self):
        progress = CampaignProgress(io.StringIO(), clock=FakeClock())
        assert progress.fold.eta_seconds(0) == 0.0

    def test_cached_units_do_not_feed_the_rate(self):
        clock = FakeClock()
        progress = CampaignProgress(io.StringIO(), clock=clock)
        clock.now = 1.0
        progress(1, 4, _unit(), cached=True)
        clock.now = 2.0
        progress(2, 4, _unit(), cached=True)
        # Two cached completions: still no computed-rate ETA.
        assert progress.fold.eta_seconds(2) is None
        assert progress.hits == 2
        assert progress.fold.lifecycle == {"campaign.unit": {"cached": 2}}

    def test_window_bounds_the_rate_history(self):
        clock = FakeClock()
        progress = CampaignProgress(io.StringIO(), clock=clock)
        # One slow early unit, then a fast recent run one window long:
        # the window forgets the slow start.
        times = [0.0] + [100.0 + i for i in range(ETA_WINDOW)]
        total = len(times) + 4
        for i, t in enumerate(times, start=1):
            clock.now = t
            progress(i, total, _unit(), cached=False)
        assert ETA_WINDOW == 8
        # Last 8 marks: 100..107 -> rate 1/s; 4 remaining -> 4s.
        assert progress.fold.eta_seconds(4) == 4.0


class TestRendering:
    def test_line_format(self):
        clock = FakeClock()
        stream = io.StringIO()
        progress = CampaignProgress(stream, clock=clock)
        progress(1, 4, _unit("E1/quick"), cached=True)
        line = stream.getvalue().strip()
        assert line.startswith("[1/4] E1/quick: cached")
        assert "hits 100%" in line
        assert "eta" in line

    def test_unknown_eta_renders_question_mark(self):
        progress = CampaignProgress(io.StringIO(), clock=FakeClock())
        text = progress.render(1, 4, "x", cached=False)
        assert text.endswith("eta ?")

    def test_mixed_hit_rate(self):
        clock = FakeClock()
        stream = io.StringIO()
        progress = CampaignProgress(stream, clock=clock)
        progress(1, 4, _unit(), cached=True)
        clock.now = 1.0
        progress(2, 4, _unit(), cached=False)
        last = stream.getvalue().strip().splitlines()[-1]
        assert "hits 50%" in last
        assert "computed" in last
