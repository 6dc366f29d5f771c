"""Finite-box separation experiments, cross-checked against a plain
breadth-first oracle on the same grid."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import (
    bfs_distances,
    box_points,
    deep_witnesses_oracle,
    grid_components,
    subgroup_points_oracle,
)
from raagsplit import _ndimage
from raagsplit.errors import InvalidScenarioError, ScenarioTooLargeError
from raagsplit.lattice import (
    CATALOG_TAGS,
    DOES_NOT_SEPARATE,
    SEPARATES,
    CatalogSpec,
    LatticeScenario,
    SeparationReport,
    SubgroupSpec,
    _subgroup_points,
    _subset_mask,
    check_rank_separation,
    deep_components,
    quasi_density_check,
    quasi_density_scenario,
    report_to_dict,
    scenario_from_dict,
    scenario_to_dict,
    standard_box_radius,
    standard_rank_scenario,
)


def oracle_counts(n, radius, thickening, depth, subset):
    """Component and deep-component counts straight from BFS."""
    dist = bfs_distances(n, radius, set(subset))
    alive = {p for p in box_points(n, radius) if dist[p] > thickening}
    comps = grid_components(alive)
    deep = [c for c in comps if any(dist[p] >= depth for p in c)]
    return comps, dist, len(comps), len(deep)


def check_against_oracle(sc, subset):
    report = deep_components(sc)
    comps, dist, total, deep = oracle_counts(
        sc.ambient_rank, sc.box_radius, sc.thickening, sc.depth, subset
    )
    assert report.total_components == total
    assert report.deep_components == deep
    assert len(report.deep_witnesses) == deep
    assert list(report.deep_witnesses) == sorted(report.deep_witnesses)
    homes = []
    for p in report.deep_witnesses:
        assert dist[p] >= sc.depth
        home = next(i for i, c in enumerate(comps) if p in c)
        homes.append(home)
        # the witness is the lexicographically smallest deep cell of its component
        assert p == min(q for q in comps[home] if dist[q] >= sc.depth)
    assert len(set(homes)) == len(homes)
    return report


class TestFrozenExamples:
    def test_line_in_plane(self):
        sc = LatticeScenario(2, SubgroupSpec(((1, 0),)), 32, 1, 8)
        report = deep_components(sc)
        assert report.deep_components == 2
        assert report.total_components == 2

    def test_line_in_three_space(self):
        sc = LatticeScenario(3, SubgroupSpec(((1, 0, 0),)), 16, 1, 6)
        assert deep_components(sc).deep_components == 1

    def test_diagonal_line(self):
        sc = LatticeScenario(2, SubgroupSpec(((1, 1),)), 32, 1, 8)
        assert deep_components(sc).deep_components == 2


class TestOracleCrossCheck:
    def test_axis_line(self):
        sc = LatticeScenario(2, SubgroupSpec(((1, 0),)), 10, 1, 2)
        check_against_oracle(sc, {(x, 0) for x in range(-10, 11)})

    def test_diagonal(self):
        sc = LatticeScenario(2, SubgroupSpec(((1, 1),)), 9, 1, 3)
        check_against_oracle(sc, {(k, k) for k in range(-9, 10)})

    def test_sparse_line_with_zero_thickening(self):
        # even points only; the odd gaps join the two half-planes
        sc = LatticeScenario(2, SubgroupSpec(((2, 0),)), 8, 0, 2)
        report = check_against_oracle(sc, {(x, 0) for x in range(-8, 9, 2)})
        assert report.total_components == 1

    def test_origin_on_the_line(self):
        sc = LatticeScenario(1, SubgroupSpec(()), 10, 1, 2)
        report = check_against_oracle(sc, {(0,)})
        assert report.deep_components == 2

    def test_axis_line_in_three_space(self):
        sc = LatticeScenario(3, SubgroupSpec(((1, 0, 0),)), 5, 1, 2)
        report = check_against_oracle(sc, {(x, 0, 0) for x in range(-5, 6)})
        assert report.deep_components == 1

    def test_checkerboard_sublattice(self):
        sc = LatticeScenario(2, SubgroupSpec(((1, 1), (1, -1))), 7, 0, 2)
        subset = {
            (x, y)
            for x in range(-7, 8)
            for y in range(-7, 8)
            if (x + y) % 2 == 0
        }
        report = check_against_oracle(sc, subset)
        assert report.deep_components == 0

    def test_catalog_half_line(self):
        sc = LatticeScenario(2, CatalogSpec("half-line"), 10, 1, 2)
        report = check_against_oracle(sc, {(x, 0) for x in range(0, 11)})
        assert report.total_components == 1

    def test_catalog_hyperplane_plane(self):
        sc = LatticeScenario(2, CatalogSpec("hyperplane"), 10, 1, 2)
        report = check_against_oracle(sc, {(x, 0) for x in range(-10, 11)})
        assert report.deep_components == 2

    def test_catalog_half_hyperplane_three_space(self):
        sc = LatticeScenario(3, CatalogSpec("half-hyperplane"), 6, 1, 2)
        subset = {(x, y, 0) for x in range(0, 7) for y in range(-6, 7)}
        report = check_against_oracle(sc, subset)
        assert report.deep_components == 1

    def test_catalog_hyperplane_three_space(self):
        sc = LatticeScenario(3, CatalogSpec("hyperplane"), 6, 1, 2)
        subset = {(x, y, 0) for x in range(-6, 7) for y in range(-6, 7)}
        report = check_against_oracle(sc, subset)
        assert report.deep_components == 2

    def test_full_lattice_leaves_nothing(self):
        sc = LatticeScenario(2, SubgroupSpec(((1, 0), (0, 1))), 6, 1, 2)
        report = check_against_oracle(sc, {p for p in box_points(2, 6)})
        assert report.total_components == 0


def _random_scenario(rng: random.Random) -> tuple[LatticeScenario, str]:
    """A small scenario of rank 1-4 with thickening 0-2; the kind is
    ``rank0`` (no or only zero generators), ``subgroup`` (random integer
    generators), ``nonprimitive`` (multiples of vectors) or a catalog tag."""
    n = rng.randint(1, 4)
    R = rng.randint(2, (20, 10, 6, 4)[n - 1])
    L = rng.randint(0, min(2, R - 2))
    D = rng.randint(1, R - L - 1)
    kind = rng.choice(("rank0", "subgroup", "nonprimitive", "catalog"))
    if kind == "catalog":
        # the half-hyperplane is defined for rank >= 2, as in quasi_density_scenario
        kind = rng.choice(CATALOG_TAGS if n >= 2 else ("half-line", "hyperplane"))
        spec = CatalogSpec(kind)
    elif kind == "rank0":
        spec = SubgroupSpec(rng.choice(((), ((0,) * n,))))
    else:
        gens = []
        for _ in range(rng.randint(1, n)):
            v = [rng.randint(-3, 3) for _ in range(n)]
            if kind == "nonprimitive":
                factor = rng.randint(2, 3)
                v = [factor * x for x in (v if any(v) else [1] * n)]
            gens.append(v)
        spec = SubgroupSpec(gens)
    return LatticeScenario(n, spec, R, L, D), kind


# Boxes of the benchmark's lattice sizes, where each box row holds long
# runs of one label: (rank, radius, subset, thickening, depth), one of
# each subset kind, five with depth <= thickening.  After them, the hard
# cases of the run labeller: the dense 2Z^3 and 2Z^4, whose rows break
# into tens of thousands of short runs, a rank-1 box with no second axis
# to join runs along, and a rank-3 box with no thickening, whose plane
# x + y + z = 0 cuts the box by its points alone.
_BENCHMARK_BOXES = [
    (3, 40, SubgroupSpec(((1, 0, 0), (1, 1, 0))), 1, 10),
    (3, 40, CatalogSpec("half-hyperplane"), 1, 30),
    (3, 30, SubgroupSpec(()), 2, 2),
    (3, 30, SubgroupSpec(((2, 0, 0), (0, 2, 0), (0, 0, 2))), 1, 1),
    (3, 30, CatalogSpec("hyperplane"), 4, 3),
    (4, 12, SubgroupSpec(((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))), 1, 8),
    (4, 10, CatalogSpec("half-hyperplane"), 1, 2),
    (4, 10, CatalogSpec("half-line"), 3, 1),
    (2, 48, CatalogSpec("hyperplane"), 1, 12),
    (2, 48, CatalogSpec("half-hyperplane"), 2, 2),
    (2, 40, SubgroupSpec(((3, 1),)), 0, 5),
    (2, 24, SubgroupSpec(((4, 6),)), 1, 6),
    (4, 10, SubgroupSpec(((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))), 1, 3),
    (3, 30, SubgroupSpec(((2, 0, 0), (0, 2, 0), (0, 0, 2))), 1, 3),
    (1, 64, SubgroupSpec(((5,),)), 1, 2),
    (3, 30, SubgroupSpec(((1, -1, 0), (0, 1, -1))), 0, 5),
]


class TestWitnessDifferential:
    """Single-pass witnesses against the per-label loop they replaced,
    kept in conftest as ``deep_witnesses_oracle``."""

    def test_seeded_scenarios(self):
        rng = random.Random(0x1A77)
        ranks, thickenings, kinds, deep_counts = set(), set(), set(), set()
        for _ in range(400):
            sc, kind = _random_scenario(rng)
            total, witnesses = deep_witnesses_oracle(sc)
            expect = SeparationReport(total, len(witnesses), witnesses, sc)
            # JSON text, so numpy integers in the report would not compare equal
            got = json.dumps(report_to_dict(deep_components(sc)))
            assert got == json.dumps(report_to_dict(expect)), scenario_to_dict(sc)
            ranks.add(sc.ambient_rank)
            thickenings.add(sc.thickening)
            kinds.add(kind)
            deep_counts.add(min(len(witnesses), 3))
        assert ranks == {1, 2, 3, 4} and thickenings == {0, 1, 2}
        assert kinds == {"rank0", "subgroup", "nonprimitive", *CATALOG_TAGS}
        assert deep_counts == {0, 1, 2, 3}

    @pytest.mark.parametrize(
        "n, radius, spec, thickening, depth",
        _BENCHMARK_BOXES,
        ids=[f"n{b[0]}-R{b[1]}-L{b[3]}-D{b[4]}" for b in _BENCHMARK_BOXES],
    )
    def test_benchmark_sized_boxes(self, n, radius, spec, thickening, depth):
        sc = LatticeScenario(n, spec, radius, thickening, depth)
        total, witnesses = deep_witnesses_oracle(sc)
        report = deep_components(sc)
        assert (report.total_components, report.deep_witnesses) == (total, witnesses)

    def test_witness_order_is_not_label_order(self):
        # the component below the line holds the box's first cell, so it
        # gets the first label, but its deep cells start later in C order
        sc = LatticeScenario(2, SubgroupSpec(((2, 1),)), 14, 1, 12)
        report = deep_components(sc)
        assert report.deep_witnesses == ((-14, 5), (-5, -14))
        assert (report.total_components, report.deep_witnesses) == deep_witnesses_oracle(sc)


class TestKernels:
    """The numpy distance and labelling kernels against the
    ``scipy.ndimage`` calls they replaced."""

    @pytest.mark.parametrize("n, radius", [(1, 64), (2, 64), (3, 62), (4, 18)])
    def test_distance_on_the_largest_boxes(self, n, radius):
        # the zero subgroup leaves only the origin, so distances are ℓ¹
        # norms up to n·R, the most any admissible box can need
        subset = _subset_mask(LatticeScenario(n, SubgroupSpec(()), radius, 0, 1))
        dist = _ndimage.taxicab_distance(subset)
        assert dist.dtype == np.uint8 and int(dist.max()) == n * radius < _ndimage.FAR
        assert np.array_equal(dist, ndimage.distance_transform_cdt(~subset, metric="taxicab"))
        coords = np.abs(np.arange(-radius, radius + 1))
        norm = sum(coords.reshape((-1,) + (1,) * (n - 1 - axis)) for axis in range(n))
        assert np.array_equal(dist, norm)

    def test_labels_match_scipy(self):
        rng = np.random.default_rng(0x1AB5)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            shape = tuple(int(x) for x in rng.integers(1, (40, 14, 8, 6)[n - 1], size=n))
            keep = rng.random(shape) < rng.choice((0.2, 0.5, 0.65, 0.9))
            first, label, total = _ndimage.label_runs(keep)
            cells = np.flatnonzero(keep)
            ours = label[np.searchsorted(first, cells, side="right") - 1]
            theirs, count = ndimage.label(keep, structure=ndimage.generate_binary_structure(n, 1))
            theirs = theirs.ravel()[cells]
            assert total == count == np.unique(ours).size
            # the same partition: as many distinct label pairs as labels
            pairs = np.unique(np.stack([ours, theirs]), axis=1)
            assert pairs.shape[1] == total
            assert np.array_equal(first, np.flatnonzero(keep & ~_shifted(keep)))


def _shifted(keep: np.ndarray) -> np.ndarray:
    """Each cell's predecessor along the last axis, False at row starts."""
    out = np.zeros_like(keep)
    out[..., 1:] = keep[..., :-1]
    return out


def subgroup_rows(spec, n, radius):
    """The rows of ``_subgroup_points`` as tuples."""
    points = _subgroup_points(spec, n, radius)
    assert points.shape == (len(points), n) and points.dtype == np.int64
    return [tuple(p) for p in points.tolist()]


@st.composite
def subgroup_cases(draw):
    """Rank 1-4, radius 1-10, and up to four generators: random entries,
    negative and zero included, a dependent combination of the others,
    and huge entries: past int64, or inside it with products that are not."""
    n = draw(st.integers(1, 4))
    radius = draw(st.integers(1, 10))
    entry = st.one_of(st.integers(-6, 6), st.sampled_from([10**30, -(10**30), 2**61]))
    gens = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
    if gens and draw(st.booleans()):
        coefs = draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
        gens.append([sum(c * v[i] for c, v in zip(coefs, gens)) for i in range(n)])
    return SubgroupSpec(gens), n, radius


class TestSubgroupPoints:
    def test_axis(self):
        pts = subgroup_rows(SubgroupSpec(((1, 0),)), 2, 5)
        assert set(pts) == {(x, 0) for x in range(-5, 6)}

    def test_redundant_generators(self):
        pts = subgroup_rows(SubgroupSpec(((2, 0), (-2, 0))), 2, 5)
        assert set(pts) == {(x, 0) for x in range(-4, 5, 2)}

    def test_zero_generator(self):
        assert set(subgroup_rows(SubgroupSpec(((0, 0),)), 2, 3)) == {(0, 0)}

    def test_no_generators(self):
        assert set(subgroup_rows(SubgroupSpec(()), 2, 3)) == {(0, 0)}

    def test_dependent_spanning_set(self):
        pts = subgroup_rows(SubgroupSpec(((1, 0), (0, 1), (1, 1))), 2, 2)
        assert set(pts) == set(box_points(2, 2))

    def test_index_two_sublattice(self):
        pts = subgroup_rows(SubgroupSpec(((1, 1), (1, -1))), 2, 3)
        assert set(pts) == {p for p in box_points(2, 3) if (p[0] + p[1]) % 2 == 0}

    def test_one_dimensional_gcd(self):
        assert set(subgroup_rows(SubgroupSpec(((3,),)), 1, 7)) == {
            (x,) for x in range(-6, 7, 3)
        }
        assert set(subgroup_rows(SubgroupSpec(((2,), (3,))), 1, 4)) == {
            (x,) for x in range(-4, 5)
        }

    def test_generator_outside_box(self):
        assert set(subgroup_rows(SubgroupSpec(((100, 0),)), 2, 10)) == {(0, 0)}

    def test_no_duplicates(self):
        pts = subgroup_rows(SubgroupSpec(((1, 1), (2, 0))), 2, 6)
        assert len(pts) == len(set(pts))

    def test_random_full_rank_pairs(self):
        rng = random.Random(2024)
        trials = 0
        while trials < 60:
            g1 = (rng.randint(-3, 3), rng.randint(-3, 3))
            g2 = (rng.randint(-3, 3), rng.randint(-3, 3))
            det = g1[0] * g2[1] - g1[1] * g2[0]
            if det == 0:
                continue
            trials += 1
            radius = rng.randint(2, 9)
            expected = set()
            for p in box_points(2, radius):
                c1 = p[0] * g2[1] - p[1] * g2[0]
                c2 = g1[0] * p[1] - g1[1] * p[0]
                if c1 % det == 0 and c2 % det == 0:
                    expected.add(p)
            got = set(subgroup_rows(SubgroupSpec((g1, g2)), 2, radius))
            assert got == expected, (g1, g2, radius)

    def test_huge_entry_scenario(self):
        # only the origin is in the box, so everything off it stays connected
        sc = LatticeScenario(2, SubgroupSpec(((1, 10**30),)), 8, 1, 2)
        assert subgroup_rows(sc.subset_spec, 2, 8) == [(0, 0)]
        report = deep_components(sc)
        assert (report.total_components, report.deep_components) == (1, 1)

    @settings(max_examples=300, deadline=None)
    @given(subgroup_cases())
    @example((SubgroupSpec(((1, 10**30), (2, -(10**30) + 1))), 2, 10))
    @example((SubgroupSpec(((1, 2**61),)), 2, 10))
    @example((SubgroupSpec(((1, 1, 0, 0), (0, 1, 1, 0), (1, 2, 1, 0))), 4, 10))
    def test_matches_recursive_walk(self, case):
        """Whole-array passes against the recursive walk they replaced,
        kept in conftest as ``subgroup_points_oracle``."""
        spec, n, radius = case
        got = subgroup_rows(spec, n, radius)
        assert len(got) == len(set(got))
        assert set(got) == set(subgroup_points_oracle(spec, n, radius))


class TestVerdicts:
    @pytest.mark.parametrize(
        "n,k,verdict",
        [
            (1, 0, SEPARATES),
            (1, 1, DOES_NOT_SEPARATE),
            (2, 1, SEPARATES),
            (2, 0, DOES_NOT_SEPARATE),
            (2, 2, DOES_NOT_SEPARATE),
            (3, 2, SEPARATES),
            (3, 1, DOES_NOT_SEPARATE),
            (4, 3, SEPARATES),
            (4, 2, DOES_NOT_SEPARATE),
            (4, 1, DOES_NOT_SEPARATE),
        ],
    )
    def test_rank_table(self, n, k, verdict):
        assert check_rank_separation(n, k) == verdict

    def test_rank_out_of_range(self):
        with pytest.raises(InvalidScenarioError):
            check_rank_separation(2, 3)
        with pytest.raises(InvalidScenarioError):
            check_rank_separation(2, -1)

    def test_standard_defaults(self):
        sc = standard_rank_scenario(2, 1)
        assert sc.box_radius == 32 and sc.thickening == 1 and sc.depth == 8
        assert sc.subset_spec == SubgroupSpec(((1, 0),))
        assert standard_box_radius(3) == 16 and standard_box_radius(4) == 8


class TestQuasiDensity:
    def test_half_hyperplane_does_not_separate(self):
        assert quasi_density_check(2) == DOES_NOT_SEPARATE

    def test_full_hyperplane_control(self):
        assert quasi_density_check(2, "hyperplane") == SEPARATES

    def test_three_space_half_plane(self):
        assert quasi_density_check(3) == DOES_NOT_SEPARATE

    def test_half_line(self):
        assert quasi_density_check(2, "half-line") == DOES_NOT_SEPARATE

    def test_needs_rank_two(self):
        with pytest.raises(InvalidScenarioError):
            quasi_density_scenario(1)

    def test_unknown_tag(self):
        with pytest.raises(InvalidScenarioError):
            quasi_density_scenario(2, "torus")


class TestInvariants:
    def test_monotone_in_thickening(self):
        counts = []
        for L in range(0, 4):
            sc = standard_rank_scenario(2, 1, box_radius=16, thickening=L, depth=4)
            counts.append(deep_components(sc).deep_components)
        assert counts == sorted(counts, reverse=True)

    def test_mirror_symmetry_plane(self):
        sc = standard_rank_scenario(2, 1, box_radius=8, thickening=1, depth=2)
        subset = {(x, 0) for x in range(-8, 9)}
        comps, dist, _, _ = oracle_counts(2, 8, 1, 2, subset)
        deep = [c for c in comps if any(dist[p] >= 2 for p in c)]
        mirrored = {
            frozenset(p[:-1] + (-p[-1],) for p in c) for c in deep
        }
        assert mirrored == {frozenset(c) for c in deep}
        sizes = sorted(len(c) for c in deep)
        assert sizes == sorted(len(c) for c in mirrored)

    def test_mirror_symmetry_three_space(self):
        sc = standard_rank_scenario(3, 2, box_radius=5, thickening=1, depth=2)
        subset = {(x, y, 0) for x in range(-5, 6) for y in range(-5, 6)}
        check_against_oracle(sc, subset)
        comps, dist, _, _ = oracle_counts(3, 5, 1, 2, subset)
        deep = {
            frozenset(c) for c in comps if any(dist[p] >= 2 for p in c)
        }
        mirrored = {
            frozenset(p[:-1] + (-p[-1],) for p in c) for c in deep
        }
        assert mirrored == deep and len(deep) == 2

    def test_determinism(self):
        sc = LatticeScenario(2, SubgroupSpec(((1, 1),)), 12, 1, 3)
        assert deep_components(sc) == deep_components(sc)
        assert check_rank_separation(3, 2) == check_rank_separation(3, 2)


class TestScenarioValidation:
    def test_rank_bounds(self):
        with pytest.raises(InvalidScenarioError):
            LatticeScenario(0, SubgroupSpec(()), 8, 1, 2)
        with pytest.raises(InvalidScenarioError):
            LatticeScenario(5, SubgroupSpec(()), 8, 1, 2)

    def test_radius_bounds(self):
        with pytest.raises(InvalidScenarioError):
            LatticeScenario(2, SubgroupSpec(()), 0, 1, 2)
        with pytest.raises(InvalidScenarioError):
            LatticeScenario(2, SubgroupSpec(()), 65, 1, 8)

    def test_depth_plus_thickening_needs_margin(self):
        with pytest.raises(InvalidScenarioError):
            LatticeScenario(2, SubgroupSpec(((1, 0),)), 8, 4, 4)

    def test_negative_thickening(self):
        with pytest.raises(InvalidScenarioError):
            LatticeScenario(2, SubgroupSpec(()), 8, -1, 2)

    def test_zero_depth(self):
        with pytest.raises(InvalidScenarioError):
            LatticeScenario(2, SubgroupSpec(()), 8, 1, 0)

    def test_generator_length_mismatch(self):
        with pytest.raises(InvalidScenarioError):
            LatticeScenario(2, SubgroupSpec(((1, 0, 0),)), 8, 1, 2)

    def test_cell_cap(self):
        with pytest.raises(ScenarioTooLargeError):
            LatticeScenario(4, SubgroupSpec(((1, 0, 0, 0),)), 40, 1, 8)

    def test_subgroup_entries_not_coerced(self):
        # truncating with int() would give ((1, 0), (1, 3))
        with pytest.raises(InvalidScenarioError):
            SubgroupSpec([(1.7, 0), (True, "3")])
        for bad in (True, np.bool_(False), 1.0, "3", None):
            with pytest.raises(InvalidScenarioError):
                SubgroupSpec([(bad, 0)])
        spec = SubgroupSpec([(np.int64(2), np.int32(-1))])
        assert spec.generators == ((2, -1),)
        assert all(type(x) is int for x in spec.generators[0])

    def test_subset_spec_type(self):
        with pytest.raises(InvalidScenarioError):
            LatticeScenario(2, "half-line", 8, 1, 2)

    def test_bool_rank_rejected(self):
        # would run as rank 1
        with pytest.raises(InvalidScenarioError, match="ambient_rank"):
            LatticeScenario(True, SubgroupSpec(((1,),)), 8, 1, 2)

    def test_float_thickening_rejected(self):
        with pytest.raises(InvalidScenarioError, match="thickening"):
            LatticeScenario(2, SubgroupSpec(((1, 0),)), 8, 1.5, 2)

    def test_float_radius_rejected(self):
        # used to pass validation and fail in deep_components with a TypeError
        with pytest.raises(InvalidScenarioError, match="box_radius"):
            LatticeScenario(2, SubgroupSpec(((1, 0),)), 8.5, 1, 2)

    def test_numpy_integer_fields_normalized(self):
        sc = LatticeScenario(
            np.int64(2), SubgroupSpec(((1, 0),)), np.int32(8), np.int8(1), np.uint16(2)
        )
        assert sc == LatticeScenario(2, SubgroupSpec(((1, 0),)), 8, 1, 2)
        assert all(type(x) is int for x in (sc.ambient_rank, sc.box_radius, sc.thickening, sc.depth))

    def test_half_hyperplane_needs_rank_two(self):
        with pytest.raises(InvalidScenarioError, match="rank >= 2"):
            LatticeScenario(1, CatalogSpec("half-hyperplane"), 8, 1, 2)
        LatticeScenario(2, CatalogSpec("half-hyperplane"), 8, 1, 2)


class TestSerialization:
    def test_subgroup_round_trip(self):
        sc = LatticeScenario(3, SubgroupSpec(((1, 0, 0), (0, 2, 0))), 10, 2, 3)
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_catalog_round_trip(self):
        sc = LatticeScenario(2, CatalogSpec("hyperplane"), 12, 1, 3)
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_defaults_applied(self):
        sc = scenario_from_dict(
            {
                "ambient_rank": 2,
                "subset_spec": {"kind": "subgroup", "generators": [[1, 0]]},
                "box_radius": 20,
            }
        )
        assert sc.thickening == 1 and sc.depth == 5

    def test_missing_field(self):
        with pytest.raises(InvalidScenarioError):
            scenario_from_dict({"ambient_rank": 2, "box_radius": 8})

    def test_unknown_kind(self):
        with pytest.raises(InvalidScenarioError):
            scenario_from_dict(
                {
                    "ambient_rank": 2,
                    "subset_spec": {"kind": "sphere"},
                    "box_radius": 8,
                }
            )

    def test_bad_generator_payload(self):
        with pytest.raises(InvalidScenarioError):
            scenario_from_dict(
                {
                    "ambient_rank": 2,
                    "subset_spec": {"kind": "subgroup", "generators": [["a", 0]]},
                    "box_radius": 8,
                }
            )

    def test_report_payload(self):
        sc = LatticeScenario(2, SubgroupSpec(((1, 0),)), 10, 1, 2)
        payload = report_to_dict(deep_components(sc))
        assert payload["deep_components"] == 2
        assert payload["scenario"]["box_radius"] == 10
        assert all(isinstance(p, list) for p in payload["deep_witnesses"])
        assert "proxy" in payload["note"] or "box" in payload["note"]
