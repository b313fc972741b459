import itertools
import random

import pytest

from contextuality import (
    Zr2,
    build_ksp_support,
    canonical_ray,
    dot,
    enumerate_ns_realizations,
    ks_search,
    orthogonal_triads,
    peres_rays,
)
from contextuality.peres import (
    SQRT2,
    Z0,
    Z1,
    Triad,
    collinear,
    coloring_from_ns_function,
    cross,
)

from helpers import reference_orthogonal_triads


def ray(*coords):
    return canonical_ray(tuple(Zr2(a, b) for a, b in coords))


X = ray((1, 0), (0, 0), (0, 0))
Y = ray((0, 0), (1, 0), (0, 0))
Z = ray((0, 0), (0, 0), (1, 0))


class TestRing:
    def test_sqrt2_squared(self):
        assert SQRT2 * SQRT2 == Zr2(2, 0)

    def test_conjugate_product(self):
        assert Zr2(1, 1) * Zr2(1, -1) == Zr2(-1, 0)

    def test_is_zero(self):
        assert Zr2(0, 0).is_zero()
        assert not Zr2(2, -1).is_zero()

    def test_sign_near_sqrt2(self):
        # 3 - 2*sqrt(2) > 0 > 2 - 2*sqrt(2)
        assert Zr2(3, -2).sign() == 1
        assert Zr2(2, -2).sign() == -1


class TestDot:
    def test_disjoint_support(self):
        u = ray((1, 0), (0, 0), (0, 0))
        v = ray((0, 0), (1, 0), (0, 1))
        assert dot(u, v).is_zero()

    def test_opposite_pair(self):
        u = ray((0, 0), (1, 0), (1, 0))
        v = ray((0, 0), (1, 0), (-1, 0))
        assert dot(u, v).is_zero()

    def test_norm_with_sqrt2(self):
        u = ray((1, 0), (1, 0), (0, 1))
        assert dot(u, u) == Zr2(4, 0)

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(13)

        def rand_vec():
            return tuple(
                Zr2(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)
            )

        for _ in range(100):
            u, v, w = rand_vec(), rand_vec(), rand_vec()
            lam = Zr2(rng.randint(-2, 2), rng.randint(-2, 2))
            du_v = sum((a * b for a, b in zip(u, v)), Z0)
            dv_u = sum((a * b for a, b in zip(v, u)), Z0)
            assert du_v == dv_u
            lhs = sum((a * (lam * b + c) for a, (b, c) in zip(u, zip(v, w))), Z0)
            rhs = lam * du_v + sum((a * c for a, c in zip(u, w)), Z0)
            assert lhs == rhs


class TestCanonicalization:
    def test_idempotent_and_scale_invariant(self):
        rng = random.Random(29)
        scalars = [Zr2(-1, 0), SQRT2, Zr2(2, 0)]
        for _ in range(200):
            coords = tuple(
                Zr2(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)
            )
            if all(c.is_zero() for c in coords):
                continue
            r = canonical_ray(coords)
            assert canonical_ray(r.coords) == r
            for lam in scalars:
                assert canonical_ray(tuple(lam * c for c in coords)) == r

    def test_sqrt2_multiple_deduplicated(self):
        assert ray((0, 1), (0, 1), (0, 0)) == ray((1, 0), (1, 0), (0, 0))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            canonical_ray((Z0, Z0, Z0))


class TestPeresRays:
    def test_exactly_33(self):
        assert len(peres_rays()) == 33

    def test_pairwise_non_collinear(self):
        rays = peres_rays()
        for u, v in itertools.combinations(rays, 2):
            assert not collinear(u, v)

    def test_family_sizes(self):
        def weight(r):
            return sorted((abs(c.a), abs(c.b)) for c in r.coords)

        rays = peres_rays()
        groups = {}
        for r in rays:
            groups.setdefault(tuple(map(tuple, [weight(r)])), []).append(r)
        sizes = sorted(len(v) for v in groups.values())
        assert sizes == [3, 6, 12, 12]


class TestTriads:
    def test_exactly_40(self):
        triads = orthogonal_triads(peres_rays())
        assert len(triads) == 40

    def test_all_mutually_orthogonal(self):
        for t in orthogonal_triads(peres_rays()):
            for u, v in itertools.combinations(t.rays, 2):
                assert dot(u, v).is_zero()

    def test_internal_and_completed_split(self):
        rays = peres_rays()
        full = orthogonal_triads(rays)
        ray_set = set(rays)
        internal = [t for t in full if set(t.rays) <= ray_set]
        assert len(internal) == 16
        completed = [t for t in full if any(r not in ray_set for r in t.rays)]
        assert len(completed) == 24
        # completions add exactly one new ray each, all distinct
        extras = {r for t in completed for r in t.rays if r not in ray_set}
        assert len(extras) == 24

    def test_coordinate_triad_present(self):
        assert Triad(rays=tuple(sorted([X, Y, Z]))) in orthogonal_triads(
            peres_rays()
        )

    def test_every_ray_in_a_triad(self):
        triads = orthogonal_triads(peres_rays())
        covered = {r for t in triads for r in t.rays}
        assert set(peres_rays()) <= covered

    def test_matches_reference_on_peres_subsets(self):
        rng = random.Random(41)
        peres = peres_rays()
        internal = completed = 0
        for _ in range(500):
            rays = rng.sample(peres, rng.randint(0, len(peres)))
            expected = reference_orthogonal_triads(rays)
            assert orthogonal_triads(rays) == expected
            inside = sum(set(t.rays) <= set(rays) for t in expected)
            internal += inside
            completed += len(expected) - inside
        assert internal > 1500 and completed > 5000  # 1,908 and 5,896 here

    def test_matches_reference_on_random_rays(self):
        # Every other set also holds an orthogonal triple whose third ray is
        # the pair's cross product times a factor: a unit such as 1 + sqrt2
        # or a prime such as 3 + sqrt2 leaves it off the canonical ray of
        # its line, which the triple must still close.
        rng = random.Random(43)
        factors = [Z1, Zr2(1, 1), Zr2(-1, 1), Zr2(3, 2), Zr2(3, 1), SQRT2]

        def random_ray():
            while True:
                coords = tuple(Zr2(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3))
                if any(c != Z0 for c in coords):
                    return canonical_ray(coords)

        internal = completed = off_line = 0
        for i in range(200):
            rays = [random_ray() for _ in range(rng.randint(0, 9))]
            if i % 2:
                u, t = random_ray(), random_ray()
                if not collinear(u, t):
                    v = canonical_ray(cross(u, t))
                    f = rng.choice(factors)
                    w = canonical_ray(tuple(f * c for c in cross(u, v)))
                    rays += [u, v, w]
                    off_line += w != canonical_ray(cross(u, v))
            expected = reference_orthogonal_triads(rays)
            assert orthogonal_triads(rays) == expected
            inside = sum(set(t.rays) <= set(rays) for t in expected)
            internal += inside
            completed += len(expected) - inside
        assert internal > 80 and completed > 20 and off_line > 40  # 100, 35 and 64 here

    def test_unit_multiple_closes_its_pair(self):
        # (0, 0, 1 + sqrt2) is Z's direction but not Z: the pair X, Y closes
        # on it, with no second triad through Z itself.
        z = ray((0, 0), (0, 0), (1, 1))
        assert z != Z and collinear(z, Z)
        assert orthogonal_triads([X, Y, z]) == [Triad(rays=tuple(sorted([X, Y, z])))]


def two_disjoint_triads():
    t1 = [X, Y, Z]
    t2 = [
        ray((1, 0), (1, 0), (0, 1)),
        ray((1, 0), (1, 0), (0, -1)),
        ray((1, 0), (-1, 0), (0, 0)),
    ]
    rays = t1 + t2
    triads = [
        Triad(rays=tuple(sorted(t1))),
        Triad(rays=tuple(sorted(t2))),
    ]
    return rays, triads


class TestKsSearch:
    def test_peres_infeasible_both_rules(self):
        rays = peres_rays()
        triads = orthogonal_triads(rays)
        for rule in ("exactly-one-zero", "exactly-one-one"):
            result = ks_search(rays, triads, rule)
            assert not result.feasible
            assert result.nodes > 0

    def test_single_triad_three_solutions(self):
        triad = Triad(rays=tuple(sorted([X, Y, Z])))
        result = ks_search([X, Y, Z], [triad], "exactly-one-zero")
        assert result.feasible
        assert sum(1 for v in result.coloring.values() if v == 0) == 1
        counted = ks_search([X, Y, Z], [triad], "exactly-one-zero", count_solutions=True)
        assert counted.solution_count == 3

    def test_two_disjoint_triads_nine_solutions(self):
        rays, triads = two_disjoint_triads()
        counted = ks_search(rays, triads, "exactly-one-zero", count_solutions=True)
        assert counted.feasible
        assert counted.solution_count == 9

    def test_complement_duality(self):
        rays, triads = two_disjoint_triads()
        a = ks_search(rays, triads, "exactly-one-zero")
        b = ks_search(rays, triads, "exactly-one-one")
        assert a.feasible == b.feasible
        # the bijection v -> 1 - v maps solutions across the two rules
        flipped = {r: 1 - v for r, v in a.coloring.items()}
        for t in triads:
            assert [flipped[r] for r in t.rays].count(1) == 1

    def test_completeness_against_brute_force(self):
        rng = random.Random(83)
        pool = peres_rays()[:12]
        orth = {
            (i, j)
            for i, j in itertools.combinations(range(len(pool)), 2)
            if dot(pool[i], pool[j]).is_zero()
        }
        # random triad structures over <= 12 rays, checked against 2^n scan
        for trial in range(20):
            k = rng.randint(6, 12)
            rays = pool[:k]
            triads = [t for t in orthogonal_triads(rays) if set(t.rays) <= set(rays)]
            if not triads:
                continue
            result = ks_search(rays, triads, "exactly-one-zero", count_solutions=True)
            universe = sorted({r for t in triads for r in t.rays} | set(rays))
            brute = 0
            for bits in itertools.product((0, 1), repeat=len(universe)):
                val = dict(zip(universe, bits))
                if all(
                    [val[r] for r in t.rays].count(0) == 1 for t in triads
                ):
                    brute += 1
            assert result.feasible == (brute > 0)
            assert result.solution_count == brute


class TestKspSupport:
    def test_context_count_1320(self):
        supp = build_ksp_support()
        assert len(supp.contexts) == 1320

    def test_support_sizes(self):
        supp = build_ksp_support()
        rays = peres_rays()
        triads = orthogonal_triads(rays)
        sizes = {3: 0, 6: 0}
        for (x, y), s in supp.supports.items():
            sizes[len(s)] += 1
            i, j = int(x) - 1, int(y) - 1
            assert (rays[j] in triads[i].rays) == (len(s) == 3)
        # each triad holds at most 3 of the 33 rays; completions reduce that
        assert sizes[3] == 16 * 3 + 24 * 2
        assert sizes[3] + sizes[6] == 1320

    def test_no_ns_realizations(self):
        assert len(enumerate_ns_realizations(build_ksp_support())) == 0

    def test_coloring_correspondence_on_feasible_instance(self):
        # mirror the construction for a small feasible ray set and convert a
        # found realization into a ray valuation
        from contextuality import make_support

        rays, triads = two_disjoint_triads()
        rays = sorted(rays)
        patterns = ("011", "101", "110")
        a_alph = {str(i + 1): patterns for i in range(len(triads))}
        b_alph = {str(j + 1): ("0", "1") for j in range(len(rays))}
        supports = {}
        for i, t in enumerate(triads):
            for j, r in enumerate(rays):
                if r in t.rays:
                    pos = t.rays.index(r)
                    supp = [(pat, pat[pos]) for pat in patterns]
                else:
                    supp = [(pat, b) for pat in patterns for b in ("0", "1")]
                supports[(str(i + 1), str(j + 1))] = supp
        mini = make_support("mini", a_alph, b_alph, supports)
        ns = enumerate_ns_realizations(mini)
        # one ns realization per coloring: 3 x 3
        assert len(ns) == 9
        coloring = coloring_from_ns_function(ns[0].f, triads)
        for t in triads:
            assert [coloring[r] for r in t.rays].count(0) == 1


def test_cross_product_orthogonal():
    rng = random.Random(3)
    rays = peres_rays()
    for _ in range(50):
        u, v = rng.sample(rays, 2)
        if collinear(u, v):
            continue
        w = canonical_ray(cross(u, v))
        assert dot(u, w).is_zero() and dot(v, w).is_zero()
