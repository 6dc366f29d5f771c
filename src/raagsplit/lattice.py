"""Finite-box experiments on coarse separation in the integer lattice.

A scenario fixes an ambient rank n, a subset of ℤⁿ (an integer
subgroup given by generating vectors, or a named catalog shape), a box
[-R, R]ⁿ, a thickening radius L and a depth D.  The experiment removes
every box point within ℓ¹-distance L of the subset, splits the rest
into unit-step components, and counts the components that still reach
ℓ¹-distance at least D from the subset.

These are desk-scale proxies on a finite box, not proofs about the
infinite lattice; every report carries its scenario and says so.

All distances are ℓ¹ (the word metric of ℤⁿ on standard generators)
and all arithmetic is integer-exact.  Distances are measured to the
subset points inside the box; the ℓ¹ metric is geodesically convex on
the box, so the sweeps of ``_ndimage.taxicab_distance``, one axis at a
time while it leads the array, compute them exactly.  A subgroup that
is a sum of multiples of axes is written into the box by strided
slices; any other is enumerated point by point.  C order is
lexicographic order, so a deep component's witness, its smallest point
at distance >= D, is its first such cell in the array.  That cell
starts a run of deep cells along its box row, so the witnesses are read
off those run starts alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import _ndimage as ndimage
from .errors import InvalidScenarioError, ScenarioTooLargeError

MAX_AMBIENT_RANK = 4
MAX_BOX_RADIUS = 64
MAX_BOX_CELLS = 2_000_000

CATALOG_TAGS = ("half-line", "half-hyperplane", "hyperplane")

SEPARATES = "separates"
DOES_NOT_SEPARATE = "does-not-separate"

PROXY_NOTE = (
    "finite-box proxy: components and depths are measured on the box "
    "[-R, R]^n only and prove nothing about the infinite lattice"
)

Point = tuple[int, ...]


@dataclass(frozen=True)
class SubgroupSpec:
    """Subset = the subgroup of ℤⁿ generated by integer vectors."""

    generators: tuple[Point, ...]

    def __init__(self, generators):
        gens = tuple(tuple(_as_int(x, "generator entry") for x in v) for v in generators)
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class CatalogSpec:
    """Subset drawn from the fixed catalog of named shapes.

    half-line        {(x, 0, ..., 0) : x >= 0}
    half-hyperplane  {x : x_n = 0, x_1 >= 0}
    hyperplane       {x : x_n = 0}
    """

    tag: str


SubsetSpec = Union[SubgroupSpec, CatalogSpec]


@dataclass(frozen=True)
class LatticeScenario:
    ambient_rank: int
    subset_spec: SubsetSpec
    box_radius: int
    thickening: int = 1
    depth: int = 8

    def __post_init__(self):
        for name in ("ambient_rank", "box_radius", "thickening", "depth"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        n, R, L, D = self.ambient_rank, self.box_radius, self.thickening, self.depth
        if not 1 <= n <= MAX_AMBIENT_RANK:
            raise InvalidScenarioError(
                f"ambient rank must be between 1 and {MAX_AMBIENT_RANK}, got {n}"
            )
        if not 1 <= R <= MAX_BOX_RADIUS:
            raise InvalidScenarioError(
                f"box radius must be between 1 and {MAX_BOX_RADIUS}, got {R}"
            )
        if L < 0:
            raise InvalidScenarioError(f"thickening must be >= 0, got {L}")
        if D < 1:
            raise InvalidScenarioError(f"depth must be >= 1, got {D}")
        if D + L >= R:
            raise InvalidScenarioError(
                f"need depth + thickening < box radius ({D} + {L} >= {R}); "
                "deep components must be witnessable inside the box"
            )
        if isinstance(self.subset_spec, SubgroupSpec):
            for v in self.subset_spec.generators:
                if len(v) != n:
                    raise InvalidScenarioError(
                        f"generator {v} has length {len(v)}, ambient rank is {n}"
                    )
        elif isinstance(self.subset_spec, CatalogSpec):
            if self.subset_spec.tag not in CATALOG_TAGS:
                raise InvalidScenarioError(
                    f"unknown catalog tag {self.subset_spec.tag!r}; "
                    f"known: {', '.join(CATALOG_TAGS)}"
                )
            if self.subset_spec.tag == "half-hyperplane" and n < 2:
                raise InvalidScenarioError("the half-hyperplane needs ambient rank >= 2")
        else:
            raise InvalidScenarioError("subset_spec must be a subgroup or a catalog entry")
        if (2 * R + 1) ** n > MAX_BOX_CELLS:
            raise ScenarioTooLargeError(
                f"box has {(2 * R + 1) ** n} cells, limit is {MAX_BOX_CELLS}"
            )


@dataclass(frozen=True)
class SeparationReport:
    total_components: int
    deep_components: int
    deep_witnesses: tuple[Point, ...]
    scenario: LatticeScenario
    note: str = PROXY_NOTE


def _echelon_basis(generators: Sequence[Point]) -> list[list[int]]:
    """Hermite normal form basis of the subgroup the generators span.

    Plain integer Gaussian elimination with gcd steps; pivots positive,
    rows ordered by pivot column, and every entry above a pivot reduced
    into [0, pivot).  Same subgroup, triangular shape; a subgroup that
    is a sum of multiples of axes comes out diagonal.
    """
    rows = [list(v) for v in generators if any(v)]
    if not rows:
        return []
    width = len(rows[0])
    basis: list[list[int]] = []
    for col in range(width):
        pool = [r for r in rows if r[col] != 0]
        if not pool:
            continue
        pivot = pool[0]
        for other in pool[1:]:
            # euclidean row steps; |other[col]| strictly shrinks
            while other[col] != 0:
                q = pivot[col] // other[col]
                for i in range(width):
                    pivot[i] -= q * other[i]
                pivot, other = other, pivot
        rows = [r for r in rows if r is not pivot and any(r)]
        if pivot[col] < 0:
            pivot[:] = [-x for x in pivot]
        for row in basis:
            q = row[col] // pivot[col]
            for i in range(col, width):
                row[i] -= q * pivot[i]
        basis.append(pivot)
    return basis


def _subgroup_points(spec: SubgroupSpec, n: int, radius: int) -> np.ndarray:
    """All subgroup elements inside [-R, R]ⁿ, as the rows of a (k, n)
    int64 array.

    Enumerates integer combinations of the echelon basis, one array pass
    per basis vector.  Because the basis is triangular, the coefficient
    of each basis vector is pinned to the exact integer interval that
    keeps its pivot coordinate inside the box, so each point is produced
    exactly once.  Partial sums run in int64 when the bound from
    ``_partial_bound`` fits, and in Python ints (dtype object) otherwise.
    """
    basis = _echelon_basis(spec.generators)
    dtype = np.int64 if _partial_bound(basis, radius) < 2**62 else object
    points = np.zeros((1, n), dtype=dtype)
    fixed_below = 0
    for vec in basis:
        pivot_col = next(i for i, x in enumerate(vec) if x)
        # columns before this pivot are final from here on
        points = points[_in_box(points[:, fixed_below:pivot_col], radius)]
        step = vec[pivot_col]
        # step > 0: ceil((-R - p)/step) and floor((R - p)/step)
        lo = -((radius + points[:, pivot_col]) // step)
        hi = (radius - points[:, pivot_col]) // step
        counts = (hi - lo + 1).astype(np.intp)
        # each row's coefficients lo, lo + 1, ..., hi, rows kept in order
        offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        coef = np.repeat(lo, counts) + offsets.astype(dtype)
        points = np.repeat(points, counts, axis=0) + coef[:, None] * np.array(vec, dtype=dtype)
        fixed_below = pivot_col
    return points[_in_box(points, radius)].astype(np.int64)


def _partial_bound(basis: list[list[int]], radius: int) -> int:
    """Bound on the absolute value of every number ``_subgroup_points``
    forms: coordinates, coefficients and interval ends."""
    bound = 0
    for vec in basis:
        step = next(x for x in vec if x)
        coef = (radius + bound) // step + 1
        bound += coef * max(abs(x) for x in vec)
    return bound + radius


def _in_box(points: np.ndarray, radius: int) -> np.ndarray:
    """Row mask: every coordinate of the row lies in [-R, R]."""
    return ((points >= -radius) & (points <= radius)).all(axis=1)


def _subset_mask(sc: LatticeScenario) -> np.ndarray:
    n, R = sc.ambient_rank, sc.box_radius
    shape = (2 * R + 1,) * n
    mask = np.zeros(shape, dtype=bool)
    spec = sc.subset_spec
    if isinstance(spec, SubgroupSpec):
        basis = _echelon_basis(spec.generators)
        if any(sum(map(bool, row)) > 1 for row in basis):
            mask[tuple((_subgroup_points(spec, n, R) + R).T)] = True
            return mask
        # a diagonal basis: the subgroup is the sum of d·ℤ along the axis
        # of each pivot d, and 0 on every other axis
        steps = {row.index(max(row)): max(row) for row in basis}
        index = (slice(R % steps[c], None, steps[c]) if c in steps else R for c in range(n))
        mask[tuple(index)] = True
        return mask
    tag = spec.tag
    if tag == "half-line":
        mask[(slice(R, None),) + (R,) * (n - 1)] = True
    elif tag == "hyperplane":
        mask[(slice(None),) * (n - 1) + (R,)] = True
    elif tag == "half-hyperplane":
        mask[(slice(R, None),) + (slice(None),) * (n - 2) + (R,)] = True
    return mask


def deep_components(sc: LatticeScenario) -> SeparationReport:
    """Count complement components reaching depth D off the subset.

    Removes every box point at ℓ¹-distance <= L from the subset, labels
    what is left by unit steps, and reports the components containing a
    point at distance >= D.  Each one's witness is its first such point
    in C order, which is lexicographic order; witnesses come sorted.

    Distances and components come from the numpy kernels in
    ``_ndimage``: ℓ¹ sweeps along the leading axis, each followed by a
    turn of the axes, and labels joined over runs of kept cells along
    the last axis, numbered by repeating each run's number up to the
    next run's start.  A component's first deep cell starts a run of
    deep cells along its box row; only those run starts, about one or
    two per row, are searched for each component's first occurrence.
    """
    R = sc.box_radius
    subset = _subset_mask(sc)
    dist = ndimage.taxicab_distance(subset)
    first, label, total = ndimage.label_runs(dist > sc.thickening)
    # dist is integral, so dist > L and dist >= D read dist >= max(D, L + 1)
    at = np.flatnonzero(ndimage.run_starts(dist >= max(sc.depth, sc.thickening + 1)))
    # a deep cell is kept, so it lies in the last run starting at or before it
    comp = label[np.searchsorted(first, at, side="right") - 1]
    _, pick = np.unique(comp, return_index=True)
    coords = np.unravel_index(at[pick], dist.shape)
    witnesses = sorted(zip(*((c - R).tolist() for c in coords)))
    return SeparationReport(
        total_components=total,
        deep_components=len(witnesses),
        deep_witnesses=tuple(witnesses),
        scenario=sc,
    )


def standard_box_radius(n: int) -> int:
    return 32 if n <= 2 else 16 if n == 3 else 8


def standard_rank_scenario(
    n: int,
    k: int,
    box_radius: Optional[int] = None,
    thickening: int = 1,
    depth: Optional[int] = None,
) -> LatticeScenario:
    """Scenario for the rank-k coordinate subgroup of ℤⁿ with the
    standard box defaults (R = 32 / 16 / 8 by rank, L = 1, D = R / 4)."""
    n, k = _as_int(n, "ambient_rank"), _as_int(k, "subgroup rank")
    if not 0 <= k <= n:
        raise InvalidScenarioError(f"subgroup rank must be between 0 and {n}, got {k}")
    R = standard_box_radius(n) if box_radius is None else box_radius
    D = R // 4 if depth is None else depth
    gens = tuple(
        tuple(1 if j == i else 0 for j in range(n)) for i in range(k)
    )
    return LatticeScenario(n, SubgroupSpec(gens), R, thickening, D)


def check_rank_separation(
    n: int,
    k: int,
    box_radius: Optional[int] = None,
    thickening: int = 1,
    depth: Optional[int] = None,
) -> str:
    """Box verdict on whether the rank-k coordinate subgroup coarsely
    separates ℤⁿ: ``separates`` iff at least two deep components
    survive.  Expected pattern: separates exactly when k = n - 1.

    >>> check_rank_separation(2, 1)
    'separates'
    >>> check_rank_separation(2, 2)
    'does-not-separate'
    """
    report = deep_components(standard_rank_scenario(n, k, box_radius, thickening, depth))
    return SEPARATES if report.deep_components >= 2 else DOES_NOT_SEPARATE


def quasi_density_scenario(
    n: int,
    subset_tag: str = "half-hyperplane",
    box_radius: Optional[int] = None,
    thickening: int = 1,
    depth: Optional[int] = None,
) -> LatticeScenario:
    if n < 2:
        raise InvalidScenarioError("quasi-density experiments need ambient rank >= 2")
    R = standard_box_radius(n) if box_radius is None else box_radius
    D = R // 4 if depth is None else depth
    return LatticeScenario(n, CatalogSpec(subset_tag), R, thickening, D)


def quasi_density_check(
    n: int,
    subset_tag: str = "half-hyperplane",
    box_radius: Optional[int] = None,
    thickening: int = 1,
    depth: Optional[int] = None,
) -> str:
    """Box verdict for a catalog subset of the last-coordinate
    hyperplane.  The default half-hyperplane misses half the plane, is
    not quasi-dense in it, and should leave at most one deep component;
    the full hyperplane tag gives the separating control case.
    """
    report = deep_components(
        quasi_density_scenario(n, subset_tag, box_radius, thickening, depth)
    )
    return SEPARATES if report.deep_components >= 2 else DOES_NOT_SEPARATE


def scenario_to_dict(sc: LatticeScenario) -> dict:
    if isinstance(sc.subset_spec, SubgroupSpec):
        subset = {
            "kind": "subgroup",
            "generators": [list(v) for v in sc.subset_spec.generators],
        }
    else:
        subset = {"kind": "catalog", "tag": sc.subset_spec.tag}
    return {
        "ambient_rank": sc.ambient_rank,
        "subset_spec": subset,
        "box_radius": sc.box_radius,
        "thickening": sc.thickening,
        "depth": sc.depth,
    }


def scenario_from_dict(data: dict) -> LatticeScenario:
    if not isinstance(data, dict):
        raise InvalidScenarioError("scenario must be a JSON object")
    missing = {"ambient_rank", "subset_spec", "box_radius"} - set(data)
    if missing:
        raise InvalidScenarioError(f"scenario is missing fields: {', '.join(sorted(missing))}")
    raw = data["subset_spec"]
    if not isinstance(raw, dict) or "kind" not in raw:
        raise InvalidScenarioError("subset_spec must be an object with a 'kind' field")
    if raw["kind"] == "subgroup":
        gens = raw.get("generators")
        if not isinstance(gens, list) or not all(isinstance(v, list) for v in gens):
            raise InvalidScenarioError("subgroup generators must be lists of integers")
        spec: SubsetSpec = SubgroupSpec(
            tuple(tuple(_json_int(x, "generator entry") for x in v) for v in gens)
        )
    elif raw["kind"] == "catalog":
        tag = raw.get("tag", "")
        if not isinstance(tag, str):
            raise InvalidScenarioError(f"catalog tag must be a string, got {tag!r}")
        spec = CatalogSpec(tag)
    else:
        raise InvalidScenarioError(f"unknown subset kind {raw['kind']!r}")
    n = _json_int(data["ambient_rank"], "ambient_rank")
    R = _json_int(data["box_radius"], "box_radius")
    L = _json_int(data.get("thickening", 1), "thickening")
    D = _json_int(data.get("depth", max(1, R // 4)), "depth")
    return LatticeScenario(n, spec, R, L, D)


def _as_int(value, field: str) -> int:
    """``value`` as an int if it is an int or a numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidScenarioError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _json_int(value, field: str) -> int:
    """``value`` as an int when JSON Schema's "integer" type admits it:
    an int, or an integral float such as 3.0.  Nothing is truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _as_int(value, field)


def report_to_dict(report: SeparationReport) -> dict:
    return {
        "total_components": report.total_components,
        "deep_components": report.deep_components,
        "deep_witnesses": [list(p) for p in report.deep_witnesses],
        "scenario": scenario_to_dict(report.scenario),
        "note": report.note,
    }
