import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import (
    OCT_GEN_X,
    OCT_GEN_Y,
    OCT_GEN_Z,
    PLANAR_I,
    PLANAR_J,
    STEP_UP_MINUS,
    STEP_UP_PLUS,
    flipped,
    is_contact,
    neighbors,
)

from hexcontact.contact import Configuration, verify
from hexcontact.lattice import (
    OCT,
    EpsilonSeq,
    Hexagonal,
    enumerate_grids,
    parse_descriptor,
    scaled_sq_dist,
)
from hexcontact.search import GreedyParams, Window, exhaustive_column, greedy


def seqs(max_span: int = 5):
    """Hypothesis strategy for offset sequences with t1 <= 0 <= t2."""

    @st.composite
    def build(draw):
        t1 = draw(st.integers(-max_span, 0))
        t2 = draw(st.integers(0, max_span))
        signs = draw(st.tuples(*[st.sampled_from((-1, 1))] * (t2 - t1)))
        return EpsilonSeq(t1, t2, signs)

    return build()


def float_scaled_dist(lattice, p, q):
    """Independent oracle: scale * squared Euclidean distance, in floats."""
    fp, fq = lattice.cartesian(p), lattice.cartesian(q)
    d2 = sum((a - b) ** 2 for a, b in zip(fp, fq))
    return (3.0 if isinstance(lattice, Hexagonal) else 1.0) * d2


def test_generator_lengths():
    # unit balls touch along every generator: all steps have length 2
    for vec in (PLANAR_I, PLANAR_J, STEP_UP_PLUS, STEP_UP_MINUS, OCT_GEN_X, OCT_GEN_Y, OCT_GEN_Z):
        assert math.sqrt(sum(c * c for c in vec)) == pytest.approx(2.0, abs=1e-12)


class TestEpsilonSeq:
    def test_single_layer(self):
        seq = EpsilonSeq(0, 0, ())
        assert seq.shift(0) == 0
        assert seq.eps(0) == 0

    def test_nine_layer(self):
        seq = EpsilonSeq(-4, 4, (1,) * 8)
        assert Hexagonal(seq).layers == (-4, 4)
        assert seq.shift(4) == 4

    def test_hand_evaluated_shifts(self):
        seq = EpsilonSeq(-1, 1, (-1, 1))
        assert (seq.shift(-1), seq.shift(0), seq.shift(1)) == (-1, 0, 1)

    @pytest.mark.parametrize(
        "t1,t2,values",
        [
            (1, 2, (1,)),         # t1 > 0
            (-2, -1, (-1,)),      # t2 < 0
            (-1, 1, (1,)),        # wrong length
            (-1, 1, (1, 0)),      # bad sign
            (-1, 1, (1, 2)),      # bad sign
        ],
    )
    def test_rejects_bad_input(self, t1, t2, values):
        with pytest.raises(ValueError):
            EpsilonSeq(t1, t2, values)

    @given(seqs())
    def test_adjacent_shifts_differ_by_one(self, seq):
        for k in range(seq.t1, seq.t2):
            assert abs(seq.shift(k + 1) - seq.shift(k)) == 1

    @given(seqs())
    def test_shift_is_signed_sum(self, seq):
        for k in range(seq.t1, seq.t2 + 1):
            if k > 0:
                assert seq.shift(k) == sum(seq.eps(t) for t in range(1, k + 1))
            elif k < 0:
                assert seq.shift(k) == sum(seq.eps(t) for t in range(k, 0))
            else:
                assert seq.shift(0) == 0


class TestGridId:
    def test_all_minus_is_zero(self):
        assert Hexagonal(EpsilonSeq(-4, 4, (-1,) * 8)).gid == 0

    def test_all_plus_is_255(self):
        assert Hexagonal(EpsilonSeq(-4, 4, (1,) * 8)).gid == 255

    def test_mixed(self):
        assert Hexagonal(EpsilonSeq(-1, 1, (-1, 1))).gid == 2

    def test_injective_over_fixed_range(self):
        ids = [Hexagonal(s).gid for s in enumerate_grids(-2, 2, normalize=False)]
        assert len(ids) == len(set(ids)) == 16

    @given(seqs(4))
    def test_roundtrip(self, seq):
        assert enumerate_grids(seq.t1, seq.t2, normalize=False)[Hexagonal(seq).gid] == seq


class TestEnumerateGrids:
    def test_normalized_nine_layer_family_has_128(self):
        assert len(enumerate_grids(-4, 4, normalize=True)) == 128

    def test_one_free_sign(self):
        assert len(enumerate_grids(0, 1, normalize=False)) == 2

    def test_normalized_three_layer(self):
        grids = enumerate_grids(-1, 1, normalize=True)
        assert len(grids) == 2
        assert all(s.eps(1) == 1 for s in grids)

    def test_ordered_by_grid_id(self):
        ids = [Hexagonal(s).gid for s in enumerate_grids(-2, 1, normalize=False)]
        assert ids == list(range(8))

    def test_single_layer_is_one_grid(self):
        assert enumerate_grids(0, 0) == [EpsilonSeq(0, 0, ())]

    def test_empty_layer_range_rejected(self):
        with pytest.raises(ValueError, match=r"^empty layer range 1\.\.-1$"):
            enumerate_grids(1, -1)

    @pytest.mark.parametrize("t1", [-2, -3])
    def test_normalize_halves_without_upper_layers(self, t1):
        kept = enumerate_grids(t1, 0, normalize=True)
        assert len(kept) == 2 ** (-t1 - 1)
        assert {flipped(s) for s in kept}.isdisjoint(kept)
        assert all(Hexagonal(s).sign == 1 for s in kept)


class TestCartesian:
    def test_origin_fixed_in_every_grid(self):
        for seq in enumerate_grids(-1, 1, normalize=False):
            assert Hexagonal(seq).cartesian((0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_first_upper_neighbor_is_the_up_plus_step(self):
        lat = Hexagonal(EpsilonSeq(0, 1, (1,)))
        got = lat.cartesian((0, 0, 1))
        assert got == pytest.approx(STEP_UP_PLUS, abs=1e-12)

    def test_octahedral_generator(self):
        assert OCT.cartesian((0, 0, 1)) == pytest.approx((1.0, 1.0, math.sqrt(2)), abs=1e-12)

    def test_layer_out_of_range(self):
        lat = Hexagonal(EpsilonSeq(0, 1, (1,)))
        with pytest.raises(ValueError):
            lat.cartesian((0, 0, 2))

    @given(seqs(), st.data())
    def test_hex_center_is_the_generator_sum(self, seq, data):
        # i and j planar steps, k vertical steps, and the layer's shift in
        # horizontal steps; the two step-up vectors are vertical +- horizontal
        lat = Hexagonal(seq)
        i, j, k = p = data.draw(
            st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(seq.t1, seq.t2))
        )
        s = seq.shift(k)
        want = tuple(
            i * a + j * b + k * (up + down) / 2 + s * (up - down) / 2
            for a, b, up, down in zip(PLANAR_I, PLANAR_J, STEP_UP_PLUS, STEP_UP_MINUS)
        )
        assert lat.cartesian(p) == pytest.approx(want, abs=1e-9)

    @given(st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)))
    def test_oct_center_is_the_generator_sum(self, p):
        want = tuple(
            p[0] * a + p[1] * b + p[2] * c for a, b, c in zip(OCT_GEN_X, OCT_GEN_Y, OCT_GEN_Z)
        )
        assert OCT.cartesian(p) == pytest.approx(want, abs=1e-9)


class TestLift:
    def test_hand_evaluated(self):
        lat = Hexagonal(EpsilonSeq(-1, 1, (-1, 1)))
        assert lat.lift((1, 1, 1)) == (2 + 1 + 1, 3 + 1, 1)
        assert lat.lift((1, 1, -1)) == (2 + 1 - 1, 3 - 1, -1)
        assert OCT.lift((1, 2, 3)) == (2 + 3, 4 + 3, 3)


class TestScaledSqDist:
    def test_identical_points(self):
        lat = Hexagonal(EpsilonSeq(0, 0, ()))
        assert scaled_sq_dist(lat, (2, 3, 0), (2, 3, 0)) == 0

    def test_frozen_examples(self):
        lat = Hexagonal(EpsilonSeq(-4, 4, (1,) * 8))
        assert scaled_sq_dist(lat, (0, 0, 0), (1, 0, 0)) == 12
        assert scaled_sq_dist(lat, (0, 0, 0), (1, 1, 0)) == 36

    @given(seqs(), st.data())
    def test_matches_float_oracle_hex(self, seq, data):
        lat = Hexagonal(seq)
        coords = st.tuples(
            st.integers(-50, 50), st.integers(-50, 50), st.integers(seq.t1, seq.t2)
        )
        p, q = data.draw(coords), data.draw(coords)
        assert scaled_sq_dist(lat, p, q) == pytest.approx(float_scaled_dist(lat, p, q), abs=1e-6)

    @given(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)),
        st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)),
    )
    def test_matches_float_oracle_oct(self, p, q):
        assert scaled_sq_dist(OCT, p, q) == pytest.approx(float_scaled_dist(OCT, p, q), abs=1e-6)

    @given(seqs(3), st.data())
    def test_no_overlap_on_grid(self, seq, data):
        lat = Hexagonal(seq)
        coords = st.tuples(
            st.integers(-8, 8), st.integers(-8, 8), st.integers(seq.t1, seq.t2)
        )
        p, q = data.draw(coords), data.draw(coords)
        if p == q:
            return
        d = scaled_sq_dist(lat, p, q)
        assert d >= 12
        assert (d == 12) == is_contact(lat, p, q)


class TestIsContact:
    def test_in_layer_generator(self):
        lat = Hexagonal(EpsilonSeq(0, 0, ()))
        assert is_contact(lat, (0, 0, 0), (0, 1, 0))

    def test_distance_four(self):
        lat = Hexagonal(EpsilonSeq(0, 0, ()))
        assert not is_contact(lat, (0, 0, 0), (2, 0, 0))

    def test_octahedral_step(self):
        assert is_contact(OCT, (0, 0, 0), (0, 0, 1))

    def test_same_ball_rejected(self):
        with pytest.raises(ValueError):
            is_contact(OCT, (1, 2, 3), (1, 2, 3))


def brute_neighbors(lattice, p):
    """Independent oracle: scan a box for points at contact distance."""
    t1, t2 = lattice.layers
    hits = []
    for di, dj, dk in itertools.product(range(-3, 4), range(-3, 4), range(-2, 3)):
        q = (p[0] + di, p[1] + dj, p[2] + dk)
        if q == p or not t1 <= q[2] <= t2:
            continue
        if scaled_sq_dist(lattice, p, q) == lattice.contact:
            hits.append(q)
    return sorted(hits)


# Neighbor offsets tabulated by hand, the reference for the offsets the
# lattices derive from their metric.  Horizontal offsets within one
# hexagonal layer, and across one layer step keyed by the step's shift
# change ds (+1 or -1).
IN_LAYER_OFFSETS = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0))
STEP_OFFSETS = {
    1: ((-1, 0), (0, -1), (0, 0)),
    -1: ((0, 0), (0, 1), (1, 0)),
}
# The twelve octahedral neighbor offsets, sorted by (dz, dx, dy).
OCT_OFFSETS = (
    (0, 0, -1), (0, 1, -1), (1, 0, -1), (1, 1, -1),
    (-1, 0, 0), (0, -1, 0), (0, 1, 0), (1, 0, 0),
    (-1, -1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1),
)


def tabulated_layer_offsets(down, up):
    """The tabulated offsets from a hexagonal layer whose steps down and up
    change the shift by ``down`` and ``up`` (0 where the range ends)."""
    return (
        *((di, dj, -1) for di, dj in STEP_OFFSETS.get(down, ())),
        *((di, dj, 0) for di, dj in IN_LAYER_OFFSETS),
        *((di, dj, 1) for di, dj in STEP_OFFSETS.get(up, ())),
    )


class TestDerivedOffsets:
    def test_hexagonal_offsets_equal_the_table_for_all_nine_shapes(self):
        shapes = set()
        for t1, t2 in [(-2, 2), (0, 1), (-1, 0), (0, 0)]:
            for seq in enumerate_grids(t1, t2, normalize=False):
                lat = Hexagonal(seq)
                for k in range(t1, t2 + 1):
                    down = seq.shift(k - 1) - seq.shift(k) if k > t1 else 0
                    up = seq.shift(k + 1) - seq.shift(k) if k < t2 else 0
                    shapes.add((down, up))
                    assert lat.offsets(k) == tabulated_layer_offsets(down, up), (seq, k)
        assert shapes == set(itertools.product((-1, 0, 1), repeat=2))

    def test_octahedral_offsets_equal_the_table(self):
        assert all(OCT.offsets(k) == OCT_OFFSETS for k in (-7, 0, 3))

    def test_no_offset_on_the_rim_of_the_enumeration_box(self):
        # The derivation scans |di|, |dj| <= 2; a neighbor on that rim would
        # leave open whether one lies beyond it.
        lattices = [OCT, *(Hexagonal(s) for s in enumerate_grids(-1, 1, normalize=False))]
        for lat in lattices:
            for k in (-1, 0, 1):
                assert all(abs(di) < 2 and abs(dj) < 2 for di, dj, _ in lat.offsets(k))


class TestNeighbors:
    @pytest.mark.parametrize("gid", range(0, 32, 5))
    def test_twelve_regular_interior(self, gid):
        lat = Hexagonal(enumerate_grids(-2, 3, normalize=False)[gid])
        for p in [(0, 0, 0), (4, -3, 1), (-2, 5, -1), (1, 1, 2)]:
            nb = neighbors(lat, p)
            assert len(nb) == 12
            assert all(is_contact(lat, p, q) for q in nb)
            assert sorted(nb) == brute_neighbors(lat, p)

    def test_boundary_layer_has_nine(self):
        lat = Hexagonal(EpsilonSeq(-4, 4, (1, -1) * 4))
        assert len(neighbors(lat, (0, 0, 4))) == 9
        assert len(neighbors(lat, (0, 0, -4))) == 9

    @pytest.mark.parametrize("t1, t2", [(-1, 1), (-4, 4), (-2, 3), (0, 2), (-3, 0), (0, 0)])
    def test_boundary_layers_match_brute_force(self, t1, t2):
        for seq in enumerate_grids(t1, t2, normalize=False)[:8]:
            lat = Hexagonal(seq)
            for k in {t1, t2}:
                for p in [(0, 0, k), (3, -2, k), (-5, 1, k)]:
                    nb = neighbors(lat, p)
                    want = 12 - 3 * (k == t1) - 3 * (k == t2)
                    assert len(nb) == want
                    assert sorted(nb) == brute_neighbors(lat, p)

    def test_octahedral_offsets_match_brute_force(self):
        nb = neighbors(OCT, (3, -1, 2))
        assert len(nb) == 12
        assert sorted(nb) == brute_neighbors(OCT, (3, -1, 2))

    def test_deterministic_offset_order(self):
        lat = Hexagonal(EpsilonSeq(-1, 1, (1, 1)))
        nb = neighbors(lat, (0, 0, 0))
        deltas = [(q[2] - 0, q[0] - 0, q[1] - 0) for q in nb]
        assert deltas == sorted(deltas)

    def test_layer_offsets_clip_silently(self):
        lat = Hexagonal(EpsilonSeq(0, 1, (1,)))
        assert len(lat.offsets(0)) == 9
        assert len(lat.offsets(1)) == 9


class TestReflection:
    @given(seqs(4), st.data())
    def test_mirror_negates_xy_keeps_z(self, seq, data):
        lat, mirror = Hexagonal(seq), Hexagonal(flipped(seq))
        p = data.draw(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(seq.t1, seq.t2))
        )
        x, y, z = lat.cartesian(p)
        xr, yr, zr = mirror.cartesian((-p[0], -p[1], p[2]))
        assert (xr, yr, zr) == pytest.approx((-x, -y, z), abs=1e-12)

    @given(seqs(4), st.data())
    def test_mirror_preserves_scaled_dist(self, seq, data):
        lat, mirror = Hexagonal(seq), Hexagonal(flipped(seq))
        coords = st.tuples(
            st.integers(-9, 9), st.integers(-9, 9), st.integers(seq.t1, seq.t2)
        )
        p, q = data.draw(coords), data.draw(coords)
        assert scaled_sq_dist(lat, p, q) == scaled_sq_dist(
            mirror, (-p[0], -p[1], p[2]), (-q[0], -q[1], q[2])
        )

    @given(seqs(4))
    def test_orientation_flips_with_the_grid(self, seq):
        if seq.t2 - seq.t1 == 0:
            assert Hexagonal(seq).sign == 1
        else:
            assert Hexagonal(seq).sign == -Hexagonal(flipped(seq)).sign

    def test_normalized_grids_have_positive_orientation(self):
        assert all(Hexagonal(s).sign == 1 for s in enumerate_grids(-3, 3, normalize=True))


def test_uniform_stacking_hits_the_true_lattice():
    # The same-step-everywhere grid is the integer span of the two planar
    # generators and the up-plus step vector.
    lat = Hexagonal(EpsilonSeq(-4, 4, (-1,) * 4 + (1,) * 4))
    rng = random.Random(7)
    for _ in range(100):
        x, y, z = rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-4, 4)
        want = tuple(
            x * a + y * b + z * c for a, b, c in zip(PLANAR_I, PLANAR_J, STEP_UP_PLUS)
        )
        assert lat.cartesian((x, y, z)) == pytest.approx(want, abs=1e-9)


# The uniform stacking again, as the image of the octahedral lattice under
# a linear map: the octahedral lattice is the fcc lattice.
FCC = parse_descriptor("hex:-4..4:00001111")


def oct_to_fcc(p):
    x, y, z = p
    return (-y, y + z, -x - z)


class TestOctahedralIsFcc:
    def test_map_scales_every_distance_by_three(self):
        # 3*d^2 on the hexagonal grid, d^2 on the octahedral lattice
        box = list(itertools.product(range(-2, 3), repeat=3))
        for p in box:
            p_image = oct_to_fcc(p)
            for q in box:
                assert scaled_sq_dist(FCC, p_image, oct_to_fcc(q)) == 3 * scaled_sq_dist(OCT, p, q)

    @staticmethod
    def assert_image_verifies_alike(config):
        image = Configuration(FCC, map(oct_to_fcc, config.balls))
        report = verify(config)
        scaled = None if report.min_scaled_dist is None else 3 * report.min_scaled_dist
        assert verify(image) == report._replace(min_scaled_dist=scaled)
        return image

    def test_exact_column_images_verify_alike(self):
        # the octahedral 3x3x3 column, n = 0..27
        for rec in exhaustive_column(Window((-1, 1), (-1, 1), (-1, 1)), 27, [OCT]):
            image = self.assert_image_verifies_alike(rec.configuration)
            assert all(-2 <= k <= 2 for _, _, k in image.balls)

    def test_greedy_image_verifies_alike(self):
        self.assert_image_verifies_alike(greedy(GreedyParams(OCT, 13)))


class TestDescriptor:
    @pytest.mark.parametrize("text", ["hex:-1..1:01", "hex:-4..4:11111111", "hex:0..0:", "oct"])
    def test_roundtrip(self, text):
        assert parse_descriptor(text).descriptor == text

    @given(seqs(4))
    def test_roundtrip_random(self, seq):
        lat = Hexagonal(seq)
        assert parse_descriptor(lat.descriptor) == lat

    @pytest.mark.parametrize(
        "bad", ["hex", "hex:1..2", "hex:a..b:01", "hex:-1..1:02", "cubic", "hex:-1..1:01:x"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_descriptor(bad)
