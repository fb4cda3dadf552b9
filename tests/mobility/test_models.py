"""Tests for the mobility-model zoo (repro.mobility)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.flooding import flood
from repro.mobility.base import MobilityMEG
from repro.mobility.direction import RandomDirection
from repro.mobility.torus_walk import TorusGridWalk
from repro.mobility.uniformity import measure_uniformity
from repro.mobility.waypoint import RandomWaypoint, RandomWaypointTorus

SIDE = 16.0

ALL_MODELS = [
    ("waypoint", lambda n: RandomWaypoint(n, SIDE, speed=1.0)),
    ("waypoint-torus", lambda n: RandomWaypointTorus(n, SIDE, speed=1.0)),
    ("direction", lambda n: RandomDirection(n, SIDE, speed=1.0)),
    ("torus-walk", lambda n: TorusGridWalk(n, SIDE, grid_size=16, move_radius=1.0)),
]


class TestCommonContract:
    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_positions_inside_region(self, name, make):
        model = make(50)
        model.reset(seed=0)
        for _ in range(20):
            model.step()
        pos = model.positions()
        assert pos.shape == (50, 2)
        assert (pos >= 0).all() and (pos <= SIDE + 1e-9).all()

    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_reset_deterministic(self, name, make):
        model = make(30)
        model.reset(seed=5)
        model.step()
        a = model.positions()
        model.reset(seed=5)
        model.step()
        np.testing.assert_allclose(a, model.positions())

    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_step_displacement_bounded(self, name, make):
        """No node teleports: per-step displacement <= speed (toroidally)."""
        model = make(40)
        model.reset(seed=1)
        before = model.positions()
        model.step()
        delta = model.positions() - before
        delta -= SIDE * np.round(delta / SIDE)  # min-image for torus models
        dist = np.sqrt((delta**2).sum(axis=1))
        assert (dist <= 1.0 + 1e-6).all()

    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_step_and_positions_need_reset(self, name, make):
        """Without reset() the generator is unseeded, so fail fast."""
        model = make(10)
        with pytest.raises(RuntimeError, match="reset"):
            model.step()
        with pytest.raises(RuntimeError, match="reset"):
            model.positions()

    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_population_size_must_be_an_integer(self, name, make):
        with pytest.raises(TypeError):
            make(2.7)
        with pytest.raises(ValueError):
            make(0)

    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_warmup_advances(self, name, make):
        model = make(20)
        model.reset(seed=2)
        before = model.positions()
        model.warmup(10)
        assert not np.allclose(before, model.positions())


class TestWaypoint:
    def test_arrival_redraws_destination(self):
        model = RandomWaypoint(1, SIDE, speed=10.0)
        model.reset(seed=0)
        # With a huge speed, the node arrives every step; positions keep
        # changing rather than sticking at one waypoint.
        seen = set()
        for _ in range(5):
            model.step()
            seen.add(tuple(np.round(model.positions()[0], 6)))
        assert len(seen) >= 3

    def test_speed_validation(self):
        with pytest.raises(ValueError):
            RandomWaypoint(5, SIDE, speed=0.0)
        with pytest.raises(ValueError):
            RandomWaypointTorus(5, SIDE, speed=SIDE)  # > side/2


class TestDirection:
    def test_reflection_conserves_speed(self):
        model = RandomDirection(200, SIDE, speed=2.0, turn_probability=0.0)
        model.reset(seed=3)
        for _ in range(50):
            model.step()
        _, vel = model._state  # noqa: SLF001
        speeds = np.sqrt((vel[0]**2).sum(axis=1))
        np.testing.assert_allclose(speeds, 2.0, rtol=1e-9)

    def test_turn_probability_validation(self):
        with pytest.raises(ValueError):
            RandomDirection(5, SIDE, speed=1.0, turn_probability=1.5)


class TestTorusWalk:
    def test_exact_uniform_stationary(self):
        model = TorusGridWalk(5000, SIDE, grid_size=8, move_radius=2.0)
        report = measure_uniformity(model, grid=8, steps=30, seed=0)
        assert report.tv_distance < 0.05
        assert report.max_min_ratio < 1.5

    def test_move_set_size(self):
        model = TorusGridWalk(5, SIDE, grid_size=16, move_radius=1.0)
        assert model.num_moves == 5  # stay + 4 axis moves at spacing 1

    def test_grid_size_must_be_an_integer(self):
        with pytest.raises(TypeError):
            TorusGridWalk(5, 4.0, grid_size=3.9, move_radius=1.0)
        assert TorusGridWalk(5, 4.0, grid_size=4.0, move_radius=1.0).grid_size == 4

    def test_disc_wider_than_the_torus_is_rejected(self):
        """Offsets of a disc with 2 * reach >= g collide mod g, so the
        move law would no longer be uniform over its targets."""
        with pytest.raises(ValueError, match="alias"):
            TorusGridWalk(5, 4.0, grid_size=4, move_radius=3.0)
        with pytest.raises(ValueError, match="alias"):
            TorusGridWalk(5, 4.0, grid_size=4, move_radius=2.0)  # reach 2 = g/2
        model = TorusGridWalk(5, 5.0, grid_size=5, move_radius=2.0)  # reach 2 < 5/2
        targets = {tuple(o % 5) for o in model._offsets}  # noqa: SLF001
        assert len(targets) == model.num_moves


class TestUniformity:
    def test_uniform_models_have_low_tv(self):
        for name, make in ALL_MODELS:
            if "torus" in name or name == "direction":
                model = make(2000)
                report = measure_uniformity(model, grid=4, steps=50, seed=0)
                assert report.tv_distance < 0.08, name

    def test_square_waypoint_center_weighted(self):
        """The square random waypoint is denser at the center (known
        non-uniformity) — the corner cells are visibly underweighted."""
        model = RandomWaypoint(3000, SIDE, speed=1.0)
        report = measure_uniformity(model, grid=4, steps=200, seed=0,
                                    warmup=100)
        counts = report.cell_counts
        corners = (counts[0, 0] + counts[0, -1] + counts[-1, 0] + counts[-1, -1]) / 4
        center = counts[1:3, 1:3].mean()
        assert center > corners

    def test_report_fields(self):
        model = TorusGridWalk(100, SIDE, grid_size=8, move_radius=1.0)
        report = measure_uniformity(model, grid=4, steps=10, seed=1)
        assert report.num_samples == 100 * 10
        assert report.chi_square >= 0.0


class TestMobilityMEG:
    def test_flooding_on_each_model(self):
        for name, make in ALL_MODELS:
            model = make(200)
            torus = "torus" in name
            meg = MobilityMEG(model, radius=4.0, torus=torus)
            res = flood(meg, 0, seed=7)
            assert res.completed, name

    def test_torus_radius_guard(self):
        model = RandomWaypointTorus(10, SIDE, speed=1.0)
        with pytest.raises(ValueError):
            MobilityMEG(model, radius=SIDE * 0.6, torus=True)

    def test_warmup_applied_only_for_approximate_models(self):
        model = RandomWaypoint(20, SIDE, speed=1.0)
        meg = MobilityMEG(model, radius=4.0, warmup_steps=5)
        meg.reset(seed=0)
        assert meg.time == 0  # warm-up happens before time 0

    def test_time_advances(self):
        model = RandomDirection(20, SIDE, speed=1.0)
        meg = MobilityMEG(model, radius=4.0)
        meg.reset(seed=0)
        meg.step()
        assert meg.time == 1
