import itertools
import random

import pytest

from contextuality import (
    Zr2,
    build_ksp_support,
    canonical_ray,
    dot,
    enumerate_ns_realizations,
    ks_support,
    orthogonal_triads,
    peres_rays,
)
from contextuality.peres import (
    RULES,
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

    def test_str_drops_unit_coefficients(self):
        shown = [Zr2(1, 1), Zr2(1, -1), Zr2(0, -1), Zr2(0, 1), Zr2(3, -2)]
        assert [str(z) for z in shown] == ["1+√2", "1-√2", "-√2", "√2", "3-2√2"]

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


def colorings(triads, rule="exactly-one-zero"):
    """Every non-signaling realization of `ks_support`, read as a ray
    coloring; its B-side must name the same one."""
    rays = sorted({r for t in triads for r in t.rays})
    out = []
    for realization in enumerate_ns_realizations(ks_support(triads, rule)):
        coloring = coloring_from_ns_function(realization.f, triads)
        assert {str(j + 1): str(coloring[r]) for j, r in enumerate(rays)} == realization.g
        out.append(coloring)
    return out


class TestKsSearch:
    def test_peres_infeasible_both_rules(self):
        triads = orthogonal_triads(peres_rays())
        for rule in RULES:
            assert colorings(triads, rule) == []

    def test_single_triad_three_solutions(self):
        triad = Triad(rays=tuple(sorted([X, Y, Z])))
        found = colorings([triad])
        assert len(found) == 3
        assert all(list(c.values()).count(0) == 1 for c in found)

    def test_two_disjoint_triads_nine_solutions(self):
        _, triads = two_disjoint_triads()
        assert len(colorings(triads)) == 9

    def test_complement_duality(self):
        # the bijection v -> 1 - v maps solutions across the two rules
        _, triads = two_disjoint_triads()
        flipped = {frozenset((r, 1 - v) for r, v in c.items()) for c in colorings(triads)}
        assert flipped == {frozenset(c.items()) for c in colorings(triads, "exactly-one-one")}
        assert len(flipped) == 9

    def test_completeness_against_brute_force(self):
        # random sets of Peres triads on <= 13 rays, closing rays included,
        # checked against a 2^n scan of their rays under both rules
        rng = random.Random(83)
        peres_triads = orthogonal_triads(peres_rays())
        checked = shared = 0
        for trial in range(40):
            triads = rng.sample(peres_triads, rng.randint(1, 6))
            universe = sorted({r for t in triads for r in t.rays})
            if len(universe) > 13:
                continue
            for rule, lone in (("exactly-one-zero", 0), ("exactly-one-one", 1)):
                brute = 0
                for bits in itertools.product((0, 1), repeat=len(universe)):
                    val = dict(zip(universe, bits))
                    if all(
                        [val[r] for r in t.rays].count(lone) == 1 for t in triads
                    ):
                        brute += 1
                assert len(colorings(triads, rule)) == brute
            checked += 1
            shared += len(universe) < 3 * len(triads)
        assert checked > 20 and shared > 5  # 29 and 11 here

    def test_spec_shape(self):
        # one context per (triad, ray on it): 40 x 3 on 33 + 24 rays
        for rule, patterns in RULES.items():
            spec = ks_support(orthogonal_triads(peres_rays()), rule)
            assert (len(spec.a_settings), len(spec.b_settings)) == (40, 57)
            assert len(spec.contexts) == 120
            assert all(spec.a_alphabet[x] == patterns for x in spec.a_settings)
            assert all(len(pairs) == 3 for pairs in spec.supports.values())


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
