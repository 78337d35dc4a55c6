"""Uniform cube grid: index sets, quadrature weights and discrete gradients.

The domain is the axis-aligned cube [-extent/2, extent/2]^3 sampled with
``m_per_axis`` points per axis (odd, at least 9, so the centre and face
centres are grid points).  Nodes are flattened in C order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import hashlib

import numpy as np


@dataclass(frozen=True)
class GridDomain:
    extent: float = 1.0
    m_per_axis: int = 17
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.m_per_axis < 9 or self.m_per_axis % 2 == 0:
            raise ValueError(f"m_per_axis must be odd and >= 9, got {self.m_per_axis}")
        if self.extent <= 0:
            raise ValueError("extent must be positive")

    @property
    def h(self) -> float:
        return self.extent / (self.m_per_axis - 1)

    @property
    def num_points(self) -> int:
        return self.m_per_axis**3

    @property
    def axis(self) -> np.ndarray:
        if "axis" not in self._cache:
            self._cache["axis"] = np.linspace(
                -self.extent / 2.0, self.extent / 2.0, self.m_per_axis
            )
        return self._cache["axis"]

    @property
    def points(self) -> np.ndarray:
        """All node coordinates, shape (num_points, 3), C-ordered."""
        if "points" not in self._cache:
            g = np.meshgrid(self.axis, self.axis, self.axis, indexing="ij")
            self._cache["points"] = np.stack([c.ravel() for c in g], axis=1)
        return self._cache["points"]

    @property
    def strides(self) -> tuple[int, int, int]:
        m = self.m_per_axis
        return (m * m, m, 1)

    @property
    def rim(self) -> np.ndarray:
        """(num_points, 3) bool, shared read-only: whether a node lies on the
        first or last plane of each axis, so a node on c faces has c flags."""
        if "rim" not in self._cache:
            midx = self.multi_index()
            rim = (midx == 0) | (midx == self.m_per_axis - 1)
            rim.flags.writeable = False
            self._cache["rim"] = rim
        return self._cache["rim"]

    @property
    def boundary_mask(self) -> np.ndarray:
        if "bmask" not in self._cache:
            self._cache["bmask"] = self.rim.any(axis=1)
        return self._cache["bmask"]

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    @property
    def boundary_indices(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_mask)

    @property
    def interior_indices(self) -> np.ndarray:
        return np.flatnonzero(self.interior_mask)

    @property
    def trapezoid_fraction(self) -> np.ndarray:
        """Per-node trapezoid-rule fraction (1 interior, 1/2 face, 1/4 edge, 1/8 corner)."""
        if "trap" not in self._cache:
            self._cache["trap"] = 0.5 ** self.rim.sum(axis=1)
        return self._cache["trap"]

    @property
    def volume_weights(self) -> np.ndarray:
        """Trapezoid volume quadrature weights, shape (num_points,)."""
        return self.h**3 * self.trapezoid_fraction

    def multi_index(self) -> np.ndarray:
        """Integer index triples, shape (num_points, 3), shared read-only."""
        if "midx" not in self._cache:
            m = self.m_per_axis
            midx = np.indices((m, m, m)).reshape(3, -1).T
            midx.flags.writeable = False
            self._cache["midx"] = midx
        return self._cache["midx"]

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Second-order discrete gradient of a nodal field, shape (num_points, 3).

        Central differences inside, one-sided second-order stencils at the
        cube faces.
        """
        m = self.m_per_axis
        cube = np.asarray(values).reshape(m, m, m)
        parts = np.gradient(cube, self.h, edge_order=2)
        return np.stack([p.ravel() for p in parts], axis=1)

    def distance_to_boundary(self, x: np.ndarray) -> np.ndarray:
        """Euclidean distance from points (k, 3) to the cube surface.

        Positive both inside and outside; zero on the surface.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        half = self.extent / 2.0
        outside = np.maximum(np.abs(x) - half, 0.0)
        d_out = np.linalg.norm(outside, axis=1)
        d_in = np.min(half - np.abs(x), axis=1)
        return np.where(d_out > 0, d_out, np.maximum(d_in, 0.0))

    def annulus_interior_mask(self, center: np.ndarray, r_min: float, r_max: float) -> np.ndarray:
        """Unknown set for a Dirichlet problem on a discrete annulus.

        Nodes strictly inside the cube whose distance to ``center`` lies in
        (r_min, r_max); everything else acts as Dirichlet data.
        """
        if not (0 < r_min < r_max):
            raise ValueError("need 0 < r_min < r_max")
        r = np.linalg.norm(self.points - np.asarray(center, dtype=float), axis=1)
        return self.interior_mask & (r > r_min) & (r < r_max)

    def fingerprint(self) -> str:
        # the "3" is the space dimension, kept so saved D-N files still match
        key = f"grid:3:{self.extent!r}:{self.m_per_axis}"
        return hashlib.sha256(key.encode()).hexdigest()[:16]
