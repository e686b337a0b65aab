"""Unit tests for the geography substrate."""

import random

import pytest

from repro.geo import (
    CONTINENT_ORDER,
    COVERAGE_RADII_KM,
    City,
    Continent,
    PopulationGrid,
    WORLD_CITIES,
    cities_in,
    city_by_code,
    coverage_rows,
    haversine_km,
    largest_cities,
    population_coverage,
    rtt_floor_ms,
    total_population_m,
    within_km,
)


class TestCities:
    def test_dataset_sanity(self):
        assert len(WORLD_CITIES) > 100
        codes = {c.code for c in WORLD_CITIES}
        assert len(codes) == len(WORLD_CITIES)
        for city in WORLD_CITIES:
            assert -90 <= city.lat <= 90
            assert -180 <= city.lon <= 180
            assert city.population_m > 0

    def test_lookup(self):
        nyc = city_by_code("NYC")
        assert nyc.name == "New York"
        assert nyc.continent is Continent.NORTH_AMERICA
        with pytest.raises(KeyError):
            city_by_code("xxx")

    def test_every_continent_represented(self):
        for continent in Continent:
            assert cities_in(continent)

    def test_largest_cities_sorted(self):
        top = largest_cities(5)
        pops = [c.population_m for c in top]
        assert pops == sorted(pops, reverse=True)
        assert top[0].name == "Tokyo"

    def test_total_population(self):
        assert 800 < total_population_m() < 2000  # ~1.1B metro residents


class TestDistance:
    def test_zero_distance(self):
        assert haversine_km(51.5, -0.1, 51.5, -0.1) == 0.0

    def test_known_distance_london_paris(self):
        lon = city_by_code("lon")
        par = city_by_code("par")
        d = haversine_km(lon.lat, lon.lon, par.lat, par.lon)
        assert 330 < d < 360  # ~344 km

    def test_antipodal_is_half_circumference(self):
        d = haversine_km(0, 0, 0, 180)
        assert d == pytest.approx(20015, rel=0.01)

    def test_within_km(self):
        assert within_km(0, 0, 0, 1, 112)
        assert not within_km(0, 0, 0, 2, 112)

    def test_rtt_floor_increases_with_distance(self):
        assert rtt_floor_ms(100) < rtt_floor_ms(1000)
        assert rtt_floor_ms(100) == pytest.approx(1.5, rel=0.01)


class TestPopulationGrid:
    def test_total_preserved(self):
        grid = PopulationGrid()
        assert grid.total_population == pytest.approx(
            total_population_m() * 1e6, rel=1e-9
        )

    def test_city_center_coverage(self):
        grid = PopulationGrid()
        tokyo = city_by_code("tyo")
        covered = grid.population_within([(tokyo.lat, tokyo.lon)], 500)
        # all of Tokyo plus Nagoya etc.; far more than Tokyo's core weight
        assert covered >= 37.3e6 * 0.46

    def test_no_coverage_in_ocean(self):
        grid = PopulationGrid()
        assert grid.population_within([(-48.0, -120.0)], 300) == 0.0

    def test_union_not_double_counted(self):
        grid = PopulationGrid()
        tokyo = city_by_code("tyo")
        point = (tokyo.lat, tokyo.lon)
        single = grid.population_within([point], 500)
        double = grid.population_within([point, point], 500)
        assert single == double

    def test_continent_restriction(self):
        grid = PopulationGrid()
        europe = grid.continent_population(Continent.EUROPE)
        assert 0 < europe < grid.total_population
        lon = city_by_code("lon")
        covered = grid.population_within(
            [(lon.lat, lon.lon)], 500, Continent.ASIA
        )
        assert covered == 0.0


def _profile_by_loop(grid, points):
    """The per-cell ``haversine_km`` minimum, computed the obvious way."""
    points = list(points)
    return [
        (
            min(haversine_km(c.lat, c.lon, lat, lon) for lat, lon in points)
            if points
            else float("inf"),
            c.population,
            c.continent,
        )
        for c in grid.cells
    ]


def _antipode(lat, lon):
    lon = lon + 180.0 if lon <= 0.0 else lon - 180.0
    return -lat, lon


class TestDistanceProfileExact:
    """``distance_profile`` returns the loop's floats bit for bit."""

    @pytest.fixture(scope="class")
    def grid(self):
        return PopulationGrid()

    @pytest.fixture(scope="class")
    def edge_grid(self):
        # cells on both poles and on both sides of the dateline
        def city(code, lat, lon):
            return City(code, code, "--", Continent.OCEANIA, lat, lon, 1.0)

        return PopulationGrid(
            [
                city("np", 90.0, 0.0),
                city("sp", -90.0, 135.0),
                city("de", 10.0, 180.0),
                city("dw", -10.0, -180.0),
                city("eq", 0.0, 0.0),
            ]
        )

    @staticmethod
    def assert_exact(grid, points):
        got = grid.distance_profile(points)
        want = _profile_by_loop(grid, points)
        assert len(got) == len(want)
        for (d, pop, cont), (wd, wpop, wcont) in zip(got, want):
            assert type(d) is float
            assert d == wd and pop == wpop and cont is wcont

    @pytest.mark.parametrize("seed,count", [(1, 1), (2, 7), (3, 60), (4, 150)])
    def test_random_points(self, grid, seed, count):
        rng = random.Random(seed)
        points = [
            (rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))
            for _ in range(count)
        ]
        self.assert_exact(grid, points)

    def test_city_points(self, grid):
        self.assert_exact(grid, [(c.lat, c.lon) for c in WORLD_CITIES])

    def test_near_antipodal_clusters(self, grid):
        # clusters of points within 1e-3..1e-7 degrees of a cell's
        # antipode: numpy and haversine_km disagree most there, and the
        # cluster's nearest point is decided by the last few bits
        rng = random.Random(11)
        points = []
        for cell in rng.sample(grid.cells, 25):
            lat, lon = _antipode(cell.lat, cell.lon)
            for scale in (1e-3, 1e-5, 1e-7):
                for _ in range(3):
                    points.append(
                        (
                            max(-90.0, min(90.0, lat + rng.uniform(-scale, scale))),
                            lon + rng.uniform(-scale, scale),
                        )
                    )
            points.append((lat, lon))
        self.assert_exact(grid, points)

    def test_poles_and_dateline(self, grid, edge_grid):
        points = [
            (90.0, 0.0),
            (90.0, 77.0),
            (-90.0, 0.0),
            (89.9999999, -45.0),
            (0.0, 180.0),
            (0.0, -180.0),
            (10.0, 179.9999999),
            (-10.0, -179.9999999),
            (-0.0, 0.0),
        ]
        for g in (grid, edge_grid):
            self.assert_exact(g, points)
            for point in points:
                self.assert_exact(g, [point])
        for cell in edge_grid.cells:
            self.assert_exact(edge_grid, [_antipode(cell.lat, cell.lon)])

    def test_duplicate_points(self, grid):
        lon, tyo = city_by_code("lon"), city_by_code("tyo")
        points = [(lon.lat, lon.lon), (tyo.lat, tyo.lon)] * 5
        self.assert_exact(grid, points)
        assert grid.distance_profile(points) == grid.distance_profile(
            points[:2]
        )

    def test_empty_points(self, grid):
        profile = grid.distance_profile([])
        assert [d for d, _, _ in profile] == [float("inf")] * len(grid.cells)
        self.assert_exact(grid, [])

    def test_band_covers_numpy_disagreement(self, grid):
        # the recheck finds the true nearest point when numpy and
        # haversine_km differ by at most half the band; near antipodes one
        # ulp of the haversine term moves the distance by ~1.9e-4 km
        import numpy as np

        from repro.geo import popgrid

        rng = random.Random(13)
        cells = rng.sample(grid.cells, 40)
        points = []
        for cell in cells:
            lat, lon = _antipode(cell.lat, cell.lon)
            for scale in (1e-4, 1e-5, 1e-6, 1e-7):
                points.extend(
                    (lat + rng.uniform(-scale, scale),
                     lon + rng.uniform(-scale, scale))
                    for _ in range(50)
                )
        lat1 = np.array([c.lat for c in cells])
        lon1 = np.array([c.lon for c in cells])
        lat2 = np.array([p[0] for p in points])
        lon2 = np.array([p[1] for p in points])
        matrix = popgrid._haversine_matrix(
            lat1, lon1, np.cos(np.radians(lat1)),
            lat2, lon2, np.cos(np.radians(lat2)),
        )
        worst = 0.0
        per_cell = len(points) // len(cells)
        for i, cell in enumerate(cells):
            # each cell against its own antipodal cluster and a stride
            # through the rest
            columns = range(i * per_cell, (i + 1) * per_cell)
            for j in list(columns) + list(range(i, len(points), 97)):
                exact = haversine_km(cell.lat, cell.lon, *points[j])
                worst = max(worst, abs(float(matrix[i, j]) - exact))
        assert 2.0 * worst <= popgrid._RECHECK_BAND_KM

    def test_blocked_matrix(self, grid, monkeypatch):
        # a small block size splits the cells into many matrix blocks
        from repro.geo import popgrid

        monkeypatch.setattr(popgrid, "_BLOCK_ELEMENTS", 1000)
        rng = random.Random(5)
        points = [
            (rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0))
            for _ in range(40)
        ]
        self.assert_exact(grid, points)
        self.assert_exact(grid, points[:1])


class TestCoverage:
    def test_radii_constants(self):
        assert COVERAGE_RADII_KM == (500, 700, 1000)

    def test_coverage_monotone_in_radius(self):
        grid = PopulationGrid()
        lon = city_by_code("lon")
        cov = population_coverage(grid, [(lon.lat, lon.lon)])
        assert 0 < cov[500] <= cov[700] <= cov[1000] <= 1.0

    def test_coverage_rows_world_and_continent(self):
        grid = PopulationGrid()
        lon = city_by_code("lon")
        rows = coverage_rows(
            grid, {"TestNet": [(lon.lat, lon.lon)]}, per_continent=True
        )
        labels = {(r.label, r.region) for r in rows}
        assert ("TestNet", "World") in labels
        assert ("TestNet", "Europe") in labels
        assert len(rows) == 1 + len(CONTINENT_ORDER)
        world = next(r for r in rows if r.region == "World")
        assert 0 < world.percent(500) <= world.percent(1000) <= 100
        with pytest.raises(KeyError):
            world.percent(123)

    def test_empty_footprint_zero_coverage(self):
        grid = PopulationGrid()
        cov = population_coverage(grid, [])
        assert cov == {500: 0.0, 700: 0.0, 1000: 0.0}
