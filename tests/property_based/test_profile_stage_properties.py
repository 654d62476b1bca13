"""Property-based equivalence of the hour-sliced profile stage.

``TMYGenerator.sample`` must return exactly the full-year TMY gathered at the
requested hours, and ``nearest_point`` exactly what a plain scalar scan over
``haversine_km`` returns.  Both are compared bit for bit (``==``, not
``approx``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo import GeoPoint, haversine_km, nearest_point, synthesize_infrastructure
from repro.weather import ClimateProfile, TMYGenerator
from repro.weather.records import HOURS_PER_YEAR

CHANNELS = ("temperature_c", "ghi_w_m2", "wind_speed_m_s", "pressure_kpa")

climates = st.builds(
    ClimateProfile,
    mean_temperature_c=st.floats(-20.0, 35.0),
    seasonal_amplitude_c=st.floats(0.0, 25.0),
    diurnal_amplitude_c=st.floats(0.0, 12.0),
    cloudiness=st.floats(0.0, 1.0),
    mean_wind_speed_m_s=st.floats(0.0, 15.0),
    wind_variability=st.floats(0.0, 1.0),
    wind_seasonality=st.floats(0.0, 1.0),
    altitude_m=st.floats(0.0, 4000.0),
)
latitudes = st.floats(-89.0, 89.0)
hour_lists = st.lists(st.integers(0, HOURS_PER_YEAR - 1), min_size=1, max_size=150)
# A run of consecutive hours that may cross the year end, as a UTC shift does.
wrapping_runs = st.builds(
    lambda start, length: (start + np.arange(length)) % HOURS_PER_YEAR,
    st.integers(HOURS_PER_YEAR - 48, HOURS_PER_YEAR - 1),
    st.integers(1, 96),
)


def _assert_sample_matches_year(name, latitude, climate, hours):
    generator = TMYGenerator(seed=11)
    year = generator.generate(name, latitude, climate)
    sampled = generator.sample(name, latitude, climate, hours)
    assert tuple(sampled) == CHANNELS
    for channel in CHANNELS:
        expected = getattr(year, channel)[np.asarray(hours)]
        assert sampled[channel].shape == expected.shape
        assert np.array_equal(sampled[channel], expected), channel


class TestSampleEqualsGatheredYear:
    @given(
        name=st.text(min_size=1, max_size=12),
        latitude=latitudes,
        climate=climates,
        hours=hour_lists,
    )
    @settings(max_examples=40, deadline=None)
    def test_unsorted_and_duplicate_hours(self, name, latitude, climate, hours):
        _assert_sample_matches_year(name, latitude, climate, hours)

    @given(latitude=latitudes, climate=climates, hours=wrapping_runs)
    @settings(max_examples=25, deadline=None)
    def test_hours_wrapping_the_year_end(self, latitude, climate, hours):
        _assert_sample_matches_year("wrap", latitude, climate, hours)

    @pytest.mark.parametrize("latitude", [-45.0, -0.5, 0.0, 0.5, 60.0])
    def test_both_hemispheres(self, latitude):
        hours = np.array([8759, 0, 4000, 4000, 13, 2190, 6570, 8759])
        _assert_sample_matches_year("hemisphere", latitude, ClimateProfile(), hours)

    def test_empty_hours(self):
        sampled = TMYGenerator().sample("none", 10.0, ClimateProfile(), [])
        assert all(sampled[channel].shape == (0,) for channel in CHANNELS)

    @pytest.mark.parametrize("hours", [[-1], [HOURS_PER_YEAR], [[0, 1]]])
    def test_out_of_year_hours_rejected(self, hours):
        with pytest.raises(ValueError):
            TMYGenerator().sample("bad", 10.0, ClimateProfile(), hours)


class _Item:
    def __init__(self, name, latitude, longitude):
        self.name = name
        self.point = GeoPoint(latitude, longitude)


def _scalar_nearest(origin, items):
    best, best_distance = None, float("inf")
    for item in items:
        distance = haversine_km(origin, item.point)
        if distance < best_distance:
            best, best_distance = item, distance
    return best, best_distance


points = st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))


class TestNearestPointEqualsScalarScan:
    @given(origin=points, candidates=st.lists(points, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_random_points(self, origin, candidates):
        items = [_Item(str(index), *point) for index, point in enumerate(candidates)]
        origin_point = GeoPoint(*origin)
        got = nearest_point(origin_point, items)
        expected = _scalar_nearest(origin_point, items)
        assert got[0] is expected[0]
        assert got[1] == expected[1]

    @given(
        origin=points,
        pool=st.lists(points, min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_duplicate_points_first_wins(self, origin, pool, picks):
        items = [_Item(str(index), *pool[pick % len(pool)]) for index, pick in enumerate(picks)]
        origin_point = GeoPoint(*origin)
        got = nearest_point(origin_point, items)
        assert got[0] is _scalar_nearest(origin_point, items)[0]
        first = next(item for item in items if item.point == got[0].point)
        assert got[0] is first

    def test_mirrored_near_ties(self):
        """Candidates mirrored about the origin tie to within an ulp or two.

        The vectorised term and the scalar distance can rank such a pair
        differently; the answer must still be the scalar scan's.
        """
        rng = np.random.default_rng(0)
        for _ in range(3000):
            latitude, longitude = rng.uniform(-60, 60), rng.uniform(-150, 150)
            offset = rng.uniform(0.001, 5.0)
            origin = GeoPoint(latitude, longitude)
            items = [
                _Item("east", latitude, longitude + offset),
                _Item("west", latitude, longitude - offset),
                _Item("north", latitude + offset, longitude),
                _Item("south", latitude - offset, longitude),
            ]
            got = nearest_point(origin, items)
            expected = _scalar_nearest(origin, items)
            assert got[0] is expected[0] and got[1] == expected[1]

    def test_empty_candidates(self):
        assert nearest_point(GeoPoint(10.0, 10.0), []) == (None, float("inf"))

    @pytest.mark.parametrize(
        "latitude,longitude", [(0.0, 0.0), (37.5, -122.3), (-89.9, 179.9), (90.0, 0.0)]
    )
    def test_antipodal_points(self, latitude, longitude):
        origin = GeoPoint(latitude, longitude)
        anti_longitude = longitude - 180.0 if longitude > 0 else longitude + 180.0
        antipode = (-latitude, anti_longitude)
        items = [
            _Item("near-antipode", -latitude + (1e-7 if latitude > 0 else -1e-7), anti_longitude),
            _Item("antipode", *antipode),
            _Item("antipode-again", *antipode),
            _Item("off", -latitude, anti_longitude + (-1e-9 if anti_longitude > 0 else 1e-9)),
        ]
        for candidates in (items, items[1:], items[:0:-1]):
            got = nearest_point(origin, candidates)
            expected = _scalar_nearest(origin, candidates)
            assert got[0] is expected[0]
            assert got[1] == expected[1]

    def test_infrastructure_map_matches_scalar_scan(self):
        infrastructure = synthesize_infrastructure()
        rng = np.random.default_rng(3)
        for latitude, longitude in zip(rng.uniform(-90, 90, 200), rng.uniform(-180, 180, 200)):
            origin = GeoPoint(float(latitude), float(longitude))
            plant, distance = infrastructure.nearest_plant(origin)
            expected_plant, expected_distance = _scalar_nearest(origin, infrastructure.plants)
            assert plant is expected_plant and distance == expected_distance
            backbone, distance = infrastructure.nearest_backbone(origin)
            expected_backbone, expected_distance = _scalar_nearest(origin, infrastructure.backbones)
            assert backbone is expected_backbone and distance == expected_distance
