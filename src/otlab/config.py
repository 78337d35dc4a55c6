"""Run configuration: JSON schema, validation with pointer paths, fingerprints."""

from __future__ import annotations

import hashlib
import json
import sys
import zipfile
from dataclasses import dataclass
from typing import Any

import numpy as np

from .dnmap import DNOperator
from .errors import ConfigError, MemoryBudgetError
from .grid import GridDomain
from .medium import B_SYMMETRY_ATOL, AprioriData, OpticalMedium
from .solver import MAX_POINTS_PER_AXIS, SOLVE_RTOL

APRIORI_KEYS = {
    "n": ("n", int),
    "p": ("p", float),
    "lambda": ("lam", float),
    "E": ("E", float),
    "calE": ("cal_e", float),
    "k": ("k", float),
    "r0": ("r0", float),
    "L": ("L", float),
    "diam": ("diam", float),
    "alpha": ("alpha", float),
}

# Every key of /experiments/<section> with its default.  The default's type
# is the key's type: bool, int, float or str, and None for an optional str.
EXPERIMENTS = {
    "solve": {"no_reaction": False, "boundary_data": "1", "dump_slice": None},
    "singular": {"m": 1, "r_min_cells": 4.0, "r_max": 0.45},
    "stability": {
        "profile_order": 0, "h": 0, "eps_start": 0.2, "eps_count": 6, "width": 0.3, "depth": 0.4
    },
    "gegenbauer_table": {"max_m": 8, "n": 3},
}


# the keys of each top-level section; a key outside its list is an error
SECTIONS = {
    "grid": ("extent", "m_per_axis"),
    "apriori": tuple(APRIORI_KEYS),
    "medium": ("mu_a", "mu_s", "B", "supp_B_interior"),
    "solver": ("grid_cap", "rtol"),
    "experiments": tuple(EXPERIMENTS),
}
# "threads" is accepted and ignored: older configs and the benchmark set it
TOP_LEVEL = ("seed", *SECTIONS, "threads")


def _known_keys(keys, known, pointer: str):
    """Raise ConfigError at ``<pointer>/<key>`` for the first of ``keys`` (in
    sorted order) that is not in ``known``, listing the known keys."""
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise ConfigError(f"{pointer}/{unknown[0]}", f"unknown key {unknown[0]!r} (known: {', '.join(known)})")


def _require(mapping: Any, key: str, pointer: str):
    if not isinstance(mapping, dict):
        raise ConfigError(pointer.rsplit("/", 1)[0] or "/", "expected an object")
    if key not in mapping:
        raise ConfigError(pointer, "required field is missing")
    return mapping[key]


def _number(value: Any, pointer: str, kind=float):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(pointer, f"expected a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # nan, inf or past float range
        raise ConfigError(pointer, f"expected a finite number, got {value!r}")
    if kind is int and int(value) != value:
        raise ConfigError(pointer, f"expected an integer, got {value!r}")
    return kind(value)


def _typed(value: Any, default: Any, pointer: str):
    """``value`` checked against the type of ``default`` (see ``EXPERIMENTS``)."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(pointer, f"expected true or false, got {value!r}")
        return value
    if isinstance(default, (int, float)):
        return _number(value, pointer, type(default))
    if not (isinstance(value, str) or (value is None and default is None)):
        raise ConfigError(pointer, f"expected a string, got {value!r}")
    return value


@dataclass
class RunConfig:
    """Validated run configuration with a content fingerprint.

    Explicit configs must be complete: the grid and every a-priori constant
    are required (no silent defaulting), the medium section is optional and
    defaults to the homogeneous unit medium.  A key that no section knows
    (``SECTIONS``, ``TOP_LEVEL``, ``EXPERIMENTS``) is an error at its
    pointer, except a top-level ``threads``, which older configs and the
    benchmark set and which is ignored.  ``solver.grid_cap`` may lower the
    built-in grid cap; every grid the config hands out is checked against
    it.  ``solver.rtol`` is the residual ``otlab solve`` requires, a number
    in (0, 1).  The medium's B must be symmetric at every node (max
    |B - B^T| at most ``B_SYMMETRY_ATOL``), or ``medium`` fails at
    ``/medium/B``.
    """

    raw: dict
    seed: int
    grid_cap: int
    rtol: float

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("/", "top-level config must be an object")
        _known_keys(data, TOP_LEVEL, "")
        for name, known in SECTIONS.items():
            # a section that is no object fails where it is read
            if isinstance(data.get(name), dict):
                _known_keys(data[name], known, f"/{name}")
        seed = _number(data.get("seed", 0), "/seed", int)
        solver = data.get("solver", {})
        if not isinstance(solver, dict):
            raise ConfigError("/solver", "expected an object")
        grid_cap = _number(solver.get("grid_cap", MAX_POINTS_PER_AXIS), "/solver/grid_cap", int)
        if grid_cap > MAX_POINTS_PER_AXIS:
            raise ConfigError(
                "/solver/grid_cap", f"may lower the built-in cap {MAX_POINTS_PER_AXIS}, not raise it"
            )
        rtol = _number(solver.get("rtol", SOLVE_RTOL), "/solver/rtol")
        if not 0.0 < rtol < 1.0:  # also rejects nan and inf
            raise ConfigError("/solver/rtol", f"expected a number in (0, 1), got {rtol!r}")
        # validate eagerly so malformed configs fail before any work starts
        cfg = cls(raw=data, seed=seed, grid_cap=grid_cap, rtol=rtol)
        cfg.apriori()
        cfg.grid()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("/", f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("/", f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def default(cls) -> "RunConfig":
        from importlib import resources

        with resources.files("otlab.data").joinpath("default_config.json").open() as fh:
            return cls.from_dict(json.load(fh))

    def fingerprint(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def apriori(self, **overrides) -> AprioriData:
        """The a-priori data; ``overrides`` that are not None replace config values."""
        section = _require(self.raw, "apriori", "/apriori")
        kwargs = {}
        for json_key, (attr, kind) in APRIORI_KEYS.items():
            value = _require(section, json_key, f"/apriori/{json_key}")
            kwargs[attr] = _number(value, f"/apriori/{json_key}", kind)
        if kwargs["n"] != 3:
            raise ConfigError("/apriori/n", f"the grid is the 3-D cube, so n must be 3, got {kwargs['n']}")
        kwargs.update({key: value for key, value in overrides.items() if value is not None})
        try:
            return AprioriData(**kwargs)
        except ValueError as exc:
            raise ConfigError("/apriori", str(exc)) from exc

    def grid(self, m_per_axis: int | None = None) -> GridDomain:
        section = _require(self.raw, "grid", "/grid")
        extent = _number(_require(section, "extent", "/grid/extent"), "/grid/extent")
        m = m_per_axis or _number(
            _require(section, "m_per_axis", "/grid/m_per_axis"), "/grid/m_per_axis", int
        )
        try:
            grid = GridDomain(extent=extent, m_per_axis=m)
        except ValueError as exc:
            raise ConfigError("/grid", str(exc)) from exc
        if m > self.grid_cap:
            raise MemoryBudgetError(f"m_per_axis={m} exceeds the cap {self.grid_cap} (/solver/grid_cap)")
        return grid

    def medium(self, grid: GridDomain, apriori: AprioriData | None = None) -> OpticalMedium:
        section = self.raw.get("medium", {"mu_a": "1", "mu_s": "1"})
        apriori = apriori or self.apriori()
        if not isinstance(section, dict):
            raise ConfigError("/medium", "expected an object")
        supp_B_interior = _typed(section.get("supp_B_interior", True), True, "/medium/supp_B_interior")
        try:
            # non-finite samples are reported below, by field and node
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                medium = OpticalMedium.from_expressions(
                    grid,
                    apriori,
                    mu_a=section.get("mu_a", "1"),
                    mu_s=section.get("mu_s", "1"),
                    B=section.get("B"),
                    supp_B_interior=supp_B_interior,
                )
        except (ValueError, TypeError, IndexError) as exc:
            raise ConfigError("/medium", str(exc)) from exc
        # a non-finite sample would otherwise surface as a failed eigen-solve
        for name, values in (("mu_a", medium.mu_a), ("mu_s", medium.mu_s), ("B", medium.B)):
            bad = ~np.isfinite(values.reshape(grid.num_points, -1)).all(axis=1)
            if bad.any():
                node = int(np.argmax(bad))
                raise ConfigError(
                    "/medium",
                    f"{name} is not finite at node {node} (x = {grid.points[node].tolist()})",
                )
        # the tensor pass reads one triangle of B
        asymmetry = medium.b_asymmetry()
        if asymmetry > B_SYMMETRY_ATOL:
            raise ConfigError("/medium/B", f"B must be symmetric, got max |B - B^T| = {asymmetry:.3e}")
        return medium

    def experiment(self, name: str, **overrides) -> dict:
        """Every key of ``EXPERIMENTS[name]``, typed, from ``/experiments/<name>``
        or its default; ``overrides`` (CLI flags) that are not None win."""
        pointer = f"/experiments/{name}"
        section = _require(self.raw.get("experiments", {}), name, pointer)
        if not isinstance(section, dict):
            raise ConfigError(pointer, "expected an object")
        defaults = EXPERIMENTS[name]
        _known_keys(section.keys() | overrides.keys(), defaults, pointer)
        values = {**defaults, **section, **{k: v for k, v in overrides.items() if v is not None}}
        return {key: _typed(values[key], default, f"{pointer}/{key}") for key, default in defaults.items()}

    def load_dn(self, path) -> DNOperator:
        """The D-N map saved at ``path`` by ``otlab dn --save``, checked against
        this config's grid and medium, finite and complex symmetric."""
        try:
            dn = DNOperator.load(path)
        except (OSError, EOFError, ValueError, LookupError, zipfile.BadZipFile) as exc:
            raise ConfigError("--load", f"cannot read a D-N map from {path}: {exc}") from exc
        grid = self.grid()
        for pointer, found, wanted in (
            ("/grid", dn.grid_fingerprint, grid.fingerprint()),
            ("/medium", dn.medium_fingerprint, self.medium(grid).fingerprint()),
        ):
            if found != wanted:
                raise ConfigError(
                    pointer,
                    f"{path} holds a D-N map for {pointer[1:]} fingerprint {found}, "
                    f"but this config gives {wanted}",
                )
        nb = len(grid.boundary_indices)
        if dn.matrix.shape != (nb, nb):
            raise ConfigError("/grid", f"{path} holds a {dn.matrix.shape} matrix, the grid needs ({nb}, {nb})")
        if not np.array_equal(dn.boundary_idx, grid.boundary_indices):
            raise ConfigError("/grid", f"{path}: boundary_idx differs from the grid's boundary nodes")
        if not (np.issubdtype(dn.matrix.dtype, np.number) and np.isfinite(dn.matrix).all()):
            raise ConfigError("--load", f"{path}: the D-N matrix has a non-finite entry")
        # the norm takes T^H from complex symmetry; assemble_dn meets this bound
        asymmetry = np.abs(dn.matrix - dn.matrix.T).max()
        if asymmetry > 1e-9 * np.abs(dn.matrix).max():
            raise ConfigError("--load", f"{path}: the D-N matrix is not symmetric (max|S - S^T| = {asymmetry:.3e})")
        return dn
