"""Gridded population model (stand-in for GPWv4, §4.3).

The paper integrates per-km² population density within radii of PoPs.  We
approximate the same integral with a discrete grid: every city in the
embedded dataset spreads its metro population over a small deterministic
pattern of cells around it (a coarse Gaussian), and coverage queries sum
cell populations within a radius.  Cell placement and weights are
deterministic, so results are reproducible without any external data.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .cities import WORLD_CITIES, City
from .continents import Continent
from .distance import EARTH_RADIUS_KM, haversine_km

#: Width (km) of the band above a cell's numpy minimum inside which
#: :meth:`PopulationGrid.distance_profile` rechecks points with
#: ``haversine_km``.  numpy's vectorized trigonometry and libm disagree on
#: the haversine term ``a`` by up to 2 ulps (measured over 300k pairs).
#: Near antipodal points ``asin`` magnifies that: one ulp of ``a`` just
#: below 1 moves the distance by ~1.9e-4 km.  The true nearest point lies
#: within twice the disagreement of the numpy minimum; 1e-3 km covers up
#: to ~14 ulps.
_RECHECK_BAND_KM = 1e-3
#: Matrix elements per block: bounds the temporaries for large point sets.
_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True, slots=True)
class GridCell:
    """One population cell: a point mass at the cell center."""

    lat: float
    lon: float
    population: float  # absolute persons (not millions)
    continent: Continent


#: Deterministic spread pattern: (dlat°, dlon°, weight).  Center-heavy with
#: a ring at ~0.6° (~65 km) and a sparse ring at ~1.5° (~165 km), roughly a
#: truncated Gaussian around the metro core.
_SPREAD: tuple[tuple[float, float, float], ...] = (
    (0.0, 0.0, 0.46),
    (0.6, 0.0, 0.07),
    (-0.6, 0.0, 0.07),
    (0.0, 0.6, 0.07),
    (0.0, -0.6, 0.07),
    (0.45, 0.45, 0.04),
    (0.45, -0.45, 0.04),
    (-0.45, 0.45, 0.04),
    (-0.45, -0.45, 0.04),
    (1.5, 0.0, 0.025),
    (-1.5, 0.0, 0.025),
    (0.0, 1.5, 0.025),
    (0.0, -1.5, 0.025),
)
if abs(sum(w for _, _, w in _SPREAD) - 1.0) > 1e-9:
    raise AssertionError("spread weights must sum to 1")


def _haversine_matrix(lat1, lon1, cos1, lat2, lon2, cos2):
    """numpy ``haversine_km`` from each row point (lat1, lon1) to each
    column point (lat2, lon2), given in degrees with the cosines of their
    latitudes; the same operations as ``haversine_km``, in its order."""
    import numpy as np

    dphi = np.radians(lat2[None, :] - lat1[:, None])
    dlambda = np.radians(lon2[None, :] - lon1[:, None])
    a = (
        np.sin(dphi / 2.0) ** 2
        + cos1[:, None] * cos2[None, :] * np.sin(dlambda / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(a)))


class PopulationGrid:
    """Discrete world population built from a city list."""

    def __init__(self, cities: Sequence[City] | None = None) -> None:
        if cities is None:
            cities = WORLD_CITIES
        cells: list[GridCell] = []
        for city in cities:
            base = city.population_m * 1_000_000.0
            for dlat, dlon, weight in _SPREAD:
                lat = max(-90.0, min(90.0, city.lat + dlat))
                lon = city.lon + dlon
                if lon > 180.0:
                    lon -= 360.0
                elif lon < -180.0:
                    lon += 360.0
                cells.append(
                    GridCell(lat, lon, base * weight, city.continent)
                )
        self.cells: tuple[GridCell, ...] = tuple(cells)
        self.total_population: float = sum(c.population for c in self.cells)
        self._arrays = None  # numpy (lat°, lon°, cos lat) of the cells

    def _cell_arrays(self):
        if self._arrays is None:
            import numpy as np

            lat = np.array([c.lat for c in self.cells])
            lon = np.array([c.lon for c in self.cells])
            self._arrays = (lat, lon, np.cos(np.radians(lat)))
        return self._arrays

    def distance_profile(
        self, points: Iterable[tuple[float, float]]
    ) -> list[tuple[float, float, Continent]]:
        """Per cell: (distance to the nearest point, population, continent).

        Computing the profile once makes coverage queries at many radii /
        continents cheap (Fig. 12 sweeps 3 radii x 7 regions x ~20
        providers).

        Each distance is the ``haversine_km`` of the cell's nearest point,
        bit for bit.  A numpy cells x points haversine matrix finds each
        cell's minimum; only the points within ``_RECHECK_BAND_KM`` of it
        are then measured again with ``haversine_km``, so the result does
        not depend on which SIMD path numpy's trigonometry takes.
        Duplicate points are dropped first; they cannot move a minimum.
        """
        points = list(
            dict.fromkeys((float(lat), float(lon)) for lat, lon in points)
        )
        nearest = [float("inf")] * len(self.cells)
        if points:
            import numpy as np

            cell_lat, cell_lon, cell_cos = self._cell_arrays()
            lat = np.array([p[0] for p in points])
            lon = np.array([p[1] for p in points])
            cos_lat = np.cos(np.radians(lat))
            cells = self.cells
            step = max(1, _BLOCK_ELEMENTS // len(points))
            for start in range(0, len(cells), step):
                block = slice(start, start + step)
                distance = _haversine_matrix(
                    cell_lat[block], cell_lon[block], cell_cos[block],
                    lat, lon, cos_lat,
                )
                limit = distance.min(axis=1) + _RECHECK_BAND_KM
                rows, cols = np.nonzero(distance <= limit[:, None])
                for i, j in zip((rows + start).tolist(), cols.tolist()):
                    cell = cells[i]
                    exact = haversine_km(cell.lat, cell.lon, *points[j])
                    if exact < nearest[i]:
                        nearest[i] = exact
        return [
            (d, cell.population, cell.continent)
            for d, cell in zip(nearest, self.cells)
        ]

    @staticmethod
    def covered_from_profile(
        profile: list[tuple[float, float, Continent]],
        radius_km: float,
        continent: Continent | None = None,
    ) -> float:
        return sum(
            population
            for distance, population, cell_continent in profile
            if distance <= radius_km
            and (continent is None or cell_continent is continent)
        )

    def population_within(
        self,
        points: Iterable[tuple[float, float]],
        radius_km: float,
        continent: Continent | None = None,
    ) -> float:
        """Population living within ``radius_km`` of any of ``points``.

        Each cell is counted at most once (union of disks), optionally
        restricted to one continent.
        """
        profile = self.distance_profile(points)
        return self.covered_from_profile(profile, radius_km, continent)

    def continent_population(self, continent: Continent | None = None) -> float:
        """Total population, optionally of one continent."""
        if continent is None:
            return self.total_population
        return sum(
            c.population for c in self.cells if c.continent is continent
        )
