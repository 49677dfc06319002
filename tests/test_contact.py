import io
import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    BALL_LINE,
    all_pairs_report,
    decode_ball_lines,
    incremental_delta,
    neighbors,
    reflect_configuration,
)

from hexcontact import cli, contact
from hexcontact.contact import (
    Configuration,
    ContactReport,
    DuplicateBallError,
    LayerOutOfRangeError,
    read_jsonl,
    verify,
    write_jsonl,
    write_jsonl_files,
)
from hexcontact.lattice import (
    OCT,
    EpsilonSeq,
    Hexagonal,
    Octahedral,
    enumerate_grids,
    parse_descriptor,
    scaled_sq_dist,
)
from hexcontact.search import Window, exhaustive_column, greedy_sweep

UP_GRID = Hexagonal(EpsilonSeq(-4, 4, (1,) * 8))
# the grids of layers -3..3 and -4..4, indexed by grid id
SEVEN_LAYER_SEQS = enumerate_grids(-3, 3, normalize=False)
NINE_LAYER_SEQS = enumerate_grids(-4, 4, normalize=False)

# Mutually touching four-ball cluster in any grid with a +1 first upward sign,
# checked pair by pair against the integer metric.
TETRA = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def random_grown_config(rng, lattice, n):
    """Grow a connected configuration by random frontier attachment."""
    balls = [(0, 0, 0)]
    ball_set = {balls[0]}
    while len(balls) < n:
        anchor = balls[rng.randrange(len(balls))]
        options = [q for q in neighbors(lattice, anchor) if q not in ball_set]
        if not options:
            continue
        pick = options[rng.randrange(len(options))]
        balls.append(pick)
        ball_set.add(pick)
    return Configuration(lattice, tuple(balls))


@st.composite
def grown_configs(draw):
    """A configuration on the octahedral lattice or a random grid of -3..3,
    grown ball by ball: each new ball touches a placed one or lands
    anywhere in a box, so gaps and several components occur."""
    if draw(st.booleans()):
        lattice, layers = OCT, st.integers(-3, 3)
    else:
        seq = SEVEN_LAYER_SEQS[draw(st.integers(0, 63))]
        lattice, layers = Hexagonal(seq), st.integers(seq.t1, seq.t2)
    balls = []
    for _ in range(draw(st.integers(0, 30))):
        if balls and draw(st.integers(0, 3)):
            anchor = draw(st.sampled_from(balls))
            p = draw(st.sampled_from(neighbors(lattice, anchor)))
        else:
            p = (draw(st.integers(-6, 6)), draw(st.integers(-6, 6)), draw(layers))
        if p not in balls:
            balls.append(p)
    return Configuration(lattice, tuple(balls))


def pairwise_report(cfg):
    """Contacts, degrees and minimum scaled distance, one scaled_sq_dist
    call per pair."""
    threshold = cfg.lattice.contact
    degrees = [0] * len(cfg.balls)
    dists = []
    for (i, p), (j, q) in itertools.combinations(enumerate(cfg.balls), 2):
        dists.append(scaled_sq_dist(cfg.lattice, p, q))
        if dists[-1] == threshold:
            degrees[i] += 1
            degrees[j] += 1
    return sum(degrees) // 2, tuple(degrees), min(dists, default=None)


def summary(report):
    return report.contacts, report.degree_sequence, report.min_scaled_dist


@given(grown_configs())
def test_verify_matches_per_pair_metric(cfg):
    report = verify(cfg)
    assert (report.contacts, report.degree_sequence, report.min_scaled_dist) == pairwise_report(cfg)


@st.composite
def shifted_configs(draw):
    """A grown configuration and its copy moved by up to 10^6 in i and j,
    and in k on the octahedral lattice, where every translation is a
    symmetry."""
    cfg = draw(grown_configs())
    far = st.integers(-10**6, 10**6)
    di, dj = draw(far), draw(far)
    dk = draw(far) if cfg.lattice == OCT else 0
    moved = tuple((i + di, j + dj, k + dk) for i, j, k in cfg.balls)
    return cfg, Configuration(cfg.lattice, moved)


@given(shifted_configs())
def test_verify_far_from_the_origin(pair):
    cfg, moved = pair
    report = verify(moved)
    assert report == verify(cfg)
    assert summary(report) == pairwise_report(moved)


@pytest.fixture(scope="module")
def swept_configs():
    """Every configuration of a hex and an oct sweep to n = 200."""
    hex_grids = [Hexagonal(s) for s in enumerate_grids(-2, 2)]
    return {
        "hex": [r.configuration for r in greedy_sweep(200, hex_grids, restarts=1)],
        "oct": [r.configuration for r in greedy_sweep(200, [OCT], restarts=2)],
    }


@pytest.mark.parametrize("kind", ["hex", "oct"])
def test_verify_matches_all_pairs_on_sweeps(swept_configs, kind):
    configs = swept_configs[kind]
    assert [len(c) for c in configs] == list(range(1, 201))
    for cfg in configs:
        assert summary(verify(cfg)) == all_pairs_report(cfg), len(cfg)


def verify_by_all_pairs(cfg):
    """verify through its all-pairs loop, forced by a lane cap of 0 bytes."""
    with mock.patch.object(contact, "_LANE_BYTES", 0):
        return verify(cfg)


@pytest.fixture
def lane_boxes(monkeypatch):
    """The sizes of the lane boxes verify allocates during the test."""
    boxes = []

    def counted(size):
        boxes.append(size)
        return bytearray(size)

    monkeypatch.setattr(contact, "bytearray", counted, raising=False)
    return boxes


@pytest.fixture(scope="module")
def path_configs(written_columns):
    """200-ball greedy runs on OCT and three hex grids, random grown
    configurations, and the 3x3x3 exact columns on hex and OCT."""
    window = Window((-1, 1), (-1, 1), (-1, 1))
    grids = [OCT, *(Hexagonal(NINE_LAYER_SEQS[g]) for g in (0, 0b01010101, 0b00101101))]
    rng = random.Random(19)
    return {
        "greedy": [greedy_sweep(200, [g])[-1].configuration for g in grids],
        "grown": [random_grown_config(rng, g, n) for g in grids for n in (2, 13, 40, 120)],
        "column": [
            *written_columns["exact"],
            *(r.configuration for r in exhaustive_column(window, 27, [OCT])),
        ],
    }


@pytest.mark.parametrize("kind", ["greedy", "grown", "column"])
def test_lanes_and_loop_agree_with_all_pairs(path_configs, kind, lane_boxes):
    configs = path_configs[kind]
    for cfg in configs:
        report = verify(cfg)
        assert report == verify_by_all_pairs(cfg), len(cfg)
        assert summary(report) == all_pairs_report(cfg), len(cfg)
    assert len(lane_boxes) == sum(len(cfg) >= 2 for cfg in configs)


@given(grown_configs())
def test_lanes_and_loop_agree_on_grown_configs(cfg):
    assert verify(cfg) == verify_by_all_pairs(cfg)


@pytest.mark.parametrize("lattice, far", [
    (OCT, ((10**9, 0, 0), (0, 10**9, 0), (0, 0, 10**9))),
    (UP_GRID, ((10**9, 0, 0), (0, -10**9, 0), (-10**9, 10**9, 4))),
    # lifted (69902, 0, 0) away: a box of 5 * 3 * 69907 = 1,048,605 bytes
    (OCT, ((34_951, 0, 0),)),
], ids=["oct", "hex", "oct-just-past-the-cap"])
def test_spread_input_takes_the_all_pairs_loop(lattice, far, lane_boxes):
    balls = (*far, (0, 0, 0), (1, 0, 0))
    n = len(balls)
    report = verify(Configuration(lattice, balls))
    assert report == ContactReport(n, 1, (0,) * (n - 2) + (1, 1), lattice.contact)
    assert not lane_boxes


@pytest.mark.parametrize("lattice", [OCT, UP_GRID], ids=["oct", "hex"])
def test_spread_input_of_two_greedy_runs_takes_the_all_pairs_loop(lattice, lane_boxes):
    run = greedy_sweep(100, [lattice])[-1].configuration
    far = tuple((i + 10**6, j, k) for i, j, k in run.balls)
    cfg = Configuration(lattice, (*run.balls, *far))
    report = verify(cfg)
    assert not lane_boxes
    assert summary(report) == all_pairs_report(cfg)
    assert report.degree_sequence == verify(run).degree_sequence * 2


def test_spread_just_under_the_cap_takes_the_lane_box(lane_boxes):
    # lifted (69900, 0, 0) away: a box of 5 * 3 * 69905 = 1,048,575 bytes
    report = verify(Configuration(OCT, ((34_950, 0, 0), (0, 0, 0), (1, 0, 0))))
    assert report == ContactReport(3, 1, (0, 1, 1), 4)
    assert lane_boxes == [1_048_575]


def test_list_balls_become_tuples():
    cfg = Configuration(UP_GRID, [[0, 0, 0], [1, 0, 0]])
    assert type(cfg.balls) is tuple and all(type(b) is tuple for b in cfg.balls)
    assert cfg == Configuration(UP_GRID, TETRA[:2])
    assert hash(cfg) == hash(Configuration(UP_GRID, TETRA[:2]))


class TestContactCount:
    def test_single_ball(self):
        assert verify(Configuration(UP_GRID, ((0, 0, 0),))).contacts == 0

    def test_adjacent_pair(self):
        assert verify(Configuration(UP_GRID, ((0, 0, 0), (1, 0, 0)))).contacts == 1

    def test_tetrahedron_is_complete(self):
        assert verify(Configuration(UP_GRID, TETRA)).contacts == 6

    def test_duplicate_rejected(self):
        cfg = Configuration(UP_GRID, ((0, 0, 0), (1, 0, 0), (0, 0, 0)))
        with pytest.raises(DuplicateBallError) as err:
            verify(cfg)
        assert err.value.indices == (0, 2)

    def test_thirteen_ball_cluster_in_every_grid(self):
        # A ball plus its 12 neighbors always carries 36 contacts: 12 to the
        # center and 24 within the shell, whatever the grid's signs.
        for seq in enumerate_grids(-2, 2, normalize=False):
            lat = Hexagonal(seq)
            balls = ((0, 0, 0), *neighbors(lat, (0, 0, 0)))
            assert verify(Configuration(lat, balls)).contacts == 36
        balls = ((0, 0, 0), *neighbors(OCT, (0, 0, 0)))
        assert verify(Configuration(OCT, balls)).contacts == 36


class TestVerify:
    def test_empty(self):
        report = verify(Configuration(UP_GRID, ()))
        assert report.n == 0 and report.contacts == 0
        assert report.min_scaled_dist is None

    def test_tetrahedron_report(self):
        report = verify(Configuration(UP_GRID, TETRA))
        assert report.contacts == 6
        assert report.degree_sequence == (3, 3, 3, 3)
        assert report.min_scaled_dist == 12
        assert sum(report.degree_sequence) == 2 * report.contacts

    def test_duplicate(self):
        with pytest.raises(DuplicateBallError):
            verify(Configuration(OCT, ((1, 1, 1), (1, 1, 1))))

    def test_layer_out_of_range(self):
        lat = Hexagonal(EpsilonSeq(0, 1, (1,)))
        with pytest.raises(LayerOutOfRangeError) as err:
            verify(Configuration(lat, ((0, 0, 0), (0, 0, 2))))
        assert err.value.index == 1

    @pytest.mark.parametrize("lattice", [UP_GRID, OCT], ids=["hex", "oct"])
    @pytest.mark.parametrize("balls", [(), ((3, -2, 1),)], ids=["no-ball", "one-ball"])
    def test_fewer_than_two_balls(self, lattice, balls):
        n = len(balls)
        assert verify(Configuration(lattice, balls)) == ContactReport(n, 0, (0,) * n, None)

    @pytest.mark.parametrize("lattice, far, dist", [
        (UP_GRID, (5, 0, 0), 300),
        (UP_GRID, (0, 0, 2), 48),
        (OCT, (3, 0, 0), 36),
        (OCT, (0, 0, 2), 16),
    ])
    def test_no_close_pair_reports_the_exact_minimum(self, lattice, far, dist):
        balls = ((0, 0, 0), far)
        assert verify(Configuration(lattice, balls)) == ContactReport(2, 0, (0, 0), dist)
        assert pairwise_report(Configuration(lattice, balls))[2] == dist

    def test_pair_spanning_the_key_stride(self):
        # Lifted to (0, 0, 0) and (0, 6, 0): a span of 6 in v, so its stride
        # is 13.  At a stride of 9 the key of the first ball shifted by the
        # contact offset (1, -3, 0) would equal the key of the second.
        report = verify(Configuration(UP_GRID, ((0, 0, 0), (-1, 2, 0))))
        assert report == ContactReport(2, 0, (0, 0), 36)

    @pytest.mark.parametrize("shift", [(10, 0, 0), (10**6, -10**6, 0), (-10**6, 10**6, 0)])
    def test_two_components(self, shift):
        di, dj, dk = shift
        far_tetra = tuple((i + di, j + dj, k + dk) for i, j, k in TETRA)
        for balls in ((*TETRA, *far_tetra), (*far_tetra, *TETRA)):
            cfg = Configuration(UP_GRID, balls)
            assert verify(cfg) == ContactReport(8, 12, (3,) * 8, 12)
            assert summary(verify(cfg)) == pairwise_report(cfg)

    def test_oct_clusters_near_a_million(self):
        shell = ((0, 0, 0), *neighbors(OCT, (0, 0, 0)))
        balls = tuple((i + 10**6, j - 10**6, k + 10**6) for i, j, k in shell)
        balls += tuple((i - 10**6, j + 10**6, k - 10**6) for i, j, k in shell)
        report = verify(Configuration(OCT, balls))
        assert report == ContactReport(26, 72, (12, *(5,) * 12) * 2, 4)
        assert summary(report) == pairwise_report(Configuration(OCT, balls))

    def test_degree_bound(self):
        rng = random.Random(11)
        for _ in range(20):
            cfg = random_grown_config(rng, UP_GRID, 30)
            report = verify(cfg)
            assert all(d <= 12 for d in report.degree_sequence)
            assert report.contacts <= 6 * report.n


class IdentityHex(Hexagonal):
    """UP_GRID's metric and layers, with the identity for ``lift``."""

    def lift(self, p):
        return p


class IdentityOct(Octahedral):
    """The octahedral metric, with the identity for ``lift``."""

    def lift(self, p):
        return p


ID_HEX, ID_OCT = IdentityHex(UP_GRID.seq), IdentityOct()


class TestFloorCheck:
    """On lattices whose ``lift`` is the identity, ball coordinates are
    lifted coordinates, so a pair can sit at any difference, closer than any
    lattice allows."""

    @pytest.mark.parametrize("lattice", [ID_HEX, ID_OCT], ids=["hex", "oct"])
    def test_every_small_difference(self, lattice):
        # Each difference alone, then beside a far touching pair, whose hit
        # keeps the all-pairs fallback from covering a missed difference.
        threshold = 12 if lattice == ID_HEX else 4
        cu, cw = (3, 8) if lattice == ID_HEX else (1, 2)
        far_pair = ((100, 0, 0), (102, 0, 0))  # lifted difference (2, 0, 0) touches on both forms
        r = range(-4, 5)
        for du, dv, dw in itertools.product(r, r, r):
            if (du, dv, dw) == (0, 0, 0):
                continue
            d = cu * du * du + dv * dv + cw * dw * dw
            alone = Configuration(lattice, ((0, 0, 0), (du, dv, dw)))
            beside = Configuration(lattice, (*alone.balls, *far_pair))
            if d < threshold:
                for cfg in (alone, beside):
                    with pytest.raises(RuntimeError, match=f"distance {d} below contact threshold {threshold};"):
                        verify(cfg)
            else:
                t = int(d == threshold)
                assert verify(alone) == ContactReport(2, t, (t, t), d)
                assert verify(beside) == ContactReport(4, t + 1, (t, t, 1, 1), threshold)

    def test_squeezed_tetrahedron(self):
        # lifted (0, 0, 0) and (0, 1, 0) differ by 1 under 3du^2 + dv^2 + 8dw^2
        with pytest.raises(RuntimeError, match="distance 1 below contact threshold 12;"):
            verify(Configuration(ID_HEX, TETRA))

    def test_input_errors_come_first(self):
        with pytest.raises(DuplicateBallError):
            verify(Configuration(ID_HEX, (*TETRA, TETRA[0])))
        with pytest.raises(LayerOutOfRangeError):
            verify(Configuration(ID_HEX, (*TETRA, (0, 0, 5))))


class TestFloorCheckByAllPairs(TestFloorCheck):
    """TestFloorCheck through verify's all-pairs loop: a lane cap of 0 bytes."""

    @pytest.fixture(autouse=True)
    def all_pairs_only(self, monkeypatch, lane_boxes):
        monkeypatch.setattr(contact, "_LANE_BYTES", 0)
        yield
        assert not lane_boxes


class TestPrefix:
    def test_contact_count_monotone_in_prefix_length(self):
        rng = random.Random(3)
        cfg = random_grown_config(rng, OCT, 25)
        counts = [verify(Configuration(OCT, cfg.balls[:n])).contacts for n in range(len(cfg) + 1)]
        assert counts == sorted(counts)


class TestIncrementalDelta:
    def test_empty(self):
        assert incremental_delta(Configuration(UP_GRID, ()), (5, 5, 2)) == 0

    def test_single_contact(self):
        cfg = Configuration(UP_GRID, ((0, 0, 0),))
        assert incremental_delta(cfg, (1, 0, 0)) == 1

    def test_completing_the_tetrahedron(self):
        cfg = Configuration(UP_GRID, TETRA[:3])
        assert incremental_delta(cfg, TETRA[3]) == 3

    def test_present_ball_rejected(self):
        cfg = Configuration(UP_GRID, TETRA)
        with pytest.raises(DuplicateBallError):
            incremental_delta(cfg, TETRA[0])

    def test_sum_of_deltas_equals_pairwise_count(self):
        # incremental counting must agree with the O(n^2) oracle exactly
        rng = random.Random(42)
        for trial in range(60):
            if trial % 3 == 0:
                lattice = OCT
            else:
                lattice = Hexagonal(SEVEN_LAYER_SEQS[rng.randrange(64)])
            cfg = random_grown_config(rng, lattice, rng.randint(2, 40))
            total = 0
            for n in range(len(cfg)):
                total += incremental_delta(Configuration(lattice, cfg.balls[:n]), cfg.balls[n])
            assert total == verify(cfg).contacts


def test_reflection_preserves_contact_count():
    rng = random.Random(9)
    for _ in range(25):
        lattice = Hexagonal(SEVEN_LAYER_SEQS[rng.randrange(64)])
        cfg = random_grown_config(rng, lattice, 20)
        assert verify(reflect_configuration(cfg)).contacts == verify(cfg).contacts


class TestJsonl:
    def test_roundtrip(self):
        cfg = Configuration(UP_GRID, TETRA, "greedy:lex")
        buf = io.StringIO()
        write_jsonl(cfg, buf)
        back = read_jsonl(io.StringIO(buf.getvalue()))
        assert back == cfg

    def test_file_roundtrip(self, tmp_path):
        cfg = Configuration(OCT, ((0, 0, 0), (0, 0, 1), (1, 0, 0)), "by hand")
        path = str(tmp_path / "cfg.jsonl")
        write_jsonl(cfg, path)
        assert read_jsonl(path) == cfg

    def test_cartesian_fields_rounded_to_12_digits(self):
        buf = io.StringIO()
        write_jsonl(Configuration(UP_GRID, ((0, 0, 1),)), buf)
        ball_line = buf.getvalue().splitlines()[1]
        assert '"z": 1.632993161855' in ball_line

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "not json\n",
            '{"lattice": "oct"}\n',
            '{"lattice": "nope", "n": 0}\n',
            '{"lattice": "oct", "n": 2}\n{"index":0,"i":0,"j":0,"k":0}\n',
            '{"lattice": "oct", "n": 1}\n{"index":0,"i":0,"j":0}\n',
            '{"lattice": "oct", "n": 0, "provenance": null}\n',
            '{"lattice": "oct", "n": 0, "provenance": 7}\n',
        ],
    )
    def test_malformed_input(self, content):
        with pytest.raises(ValueError, match="line"):
            read_jsonl(io.StringIO(content))

    def test_missing_provenance_reads_empty(self):
        assert read_jsonl(io.StringIO('{"lattice": "oct", "n": 0}\n')).provenance == ""

    def test_integer_coordinates_are_authoritative(self):
        cfg = Configuration(UP_GRID, TETRA)
        buf = io.StringIO()
        write_jsonl(cfg, buf)
        # corrupt every Cartesian field; the read must not care
        corrupted = buf.getvalue().replace('"x":', '"x_ignored":')
        assert read_jsonl(io.StringIO(corrupted)) == cfg


def reference_jsonl(config):
    """The file text of a configuration, one ``json.dumps`` per record: the
    reference for the line formatter of the writers."""
    header = {
        "lattice": config.lattice.descriptor,
        "n": len(config.balls),
        "provenance": config.provenance,
    }
    lines = [json.dumps(header)]
    for idx, ball in enumerate(config.balls):
        x, y, z = config.lattice.cartesian(ball)
        record = {
            "index": idx,
            "i": ball[0],
            "j": ball[1],
            "k": ball[2],
            "x": round(x, 12),
            "y": round(y, 12),
            "z": round(z, 12),
        }
        lines.append(json.dumps(record))
    return "".join(line + "\n" for line in lines)


def written(config):
    buf = io.StringIO()
    write_jsonl(config, buf)
    return buf.getvalue()


def assert_files_match_reference(configs, tmp_path):
    pairs = [(config, str(tmp_path / f"{idx}.jsonl")) for idx, config in enumerate(configs)]
    write_jsonl_files(pairs)
    for config, path in pairs:
        with open(path) as fh:
            assert fh.read() == reference_jsonl(config), path


def groups(configs):
    """Configurations by (lattice, provenance), as write_jsonl_files groups them."""
    out = {}
    for config in configs:
        out.setdefault((config.lattice, config.provenance), []).append(config)
    return out.values()


def reversed_balls(config):
    """Same lattice and provenance, balls in reverse order: not a prefix of
    ``config`` once it has two balls."""
    return Configuration(config.lattice, config.balls[::-1], config.provenance)


@pytest.fixture(scope="module")
def written_columns():
    """The configurations a hex sweep, an oct sweep and an exact column write."""
    hex_grids = [Hexagonal(s) for s in enumerate_grids(-2, 2)]
    window = Window((-1, 1), (-1, 1), (-1, 1))
    return {
        "hex": [r.configuration for r in greedy_sweep(60, hex_grids, restarts=2)],
        "oct": [r.configuration for r in greedy_sweep(60, [OCT], restarts=8)],
        "exact": [
            r.configuration
            for r in exhaustive_column(window, 27, [Hexagonal(s) for s in enumerate_grids(-1, 1)])
        ],
    }


class TestJsonlFormatter:
    @pytest.mark.parametrize("kind", ["hex", "oct", "exact"])
    def test_files_match_reference(self, written_columns, kind, tmp_path):
        assert_files_match_reference(written_columns[kind], tmp_path)

    def test_exact_column_has_members_that_are_not_prefixes(self, written_columns):
        # the fallback of write_jsonl_files is covered only if this holds
        assert any(
            config.balls != max(group, key=len).balls[:len(config)]
            for group in groups(written_columns["exact"])
            for config in group
        )

    @pytest.mark.parametrize("kind", ["hex", "oct"])
    def test_sweep_lines_formatted_once_per_run(self, written_columns, kind, tmp_path, monkeypatch):
        configs = written_columns[kind]
        calls = []
        lattice_type = type(configs[0].lattice)
        cartesian = lattice_type.cartesian

        def counting(lattice, p):
            calls.append(p)
            return cartesian(lattice, p)

        monkeypatch.setattr(lattice_type, "cartesian", counting)
        write_jsonl_files((config, str(tmp_path / f"{idx}.jsonl")) for idx, config in enumerate(configs))
        # at most one conversion per distinct lifted coordinate value, since
        # each adds the text of at least one
        lifted = [config.lattice.lift(ball) for config in configs for ball in config.balls]
        assert 0 < len(calls) <= sum(len(set(values)) for values in zip(*lifted))
        assert len(calls) < sum(len(max(group, key=len)) for group in groups(configs))

    @pytest.mark.parametrize(
        "config",
        [
            Configuration(OCT, ()),
            Configuration(UP_GRID, (), "greedy:lex"),
            Configuration(UP_GRID, ((0, 0, 0),)),
            Configuration(OCT, ((-3, 2, -1),), "one ball"),
            Configuration(UP_GRID, TETRA, 'say "contact" \\ Größe 接触 \t✓'),
        ],
    )
    def test_edge_cases_match_reference(self, config, tmp_path):
        assert written(config) == reference_jsonl(config)
        half = Configuration(config.lattice, config.balls[: len(config) // 2], config.provenance)
        same_group = [config, half, reversed_balls(config)]
        assert_files_match_reference(same_group, tmp_path)

    @given(st.data())
    def test_write_jsonl_matches_reference(self, data):
        if data.draw(st.booleans()):
            lattice, layers = OCT, st.integers(-6, 6)
        else:
            t1, t2 = data.draw(st.integers(-4, 0)), data.draw(st.integers(0, 4))
            seq = enumerate_grids(t1, t2, normalize=False)[data.draw(st.integers(0, (1 << (t2 - t1)) - 1))]
            lattice, layers = Hexagonal(seq), st.integers(t1, t2)
        coordinate = st.integers(-1000, 1000)
        balls = data.draw(st.lists(st.tuples(coordinate, coordinate, layers), max_size=12, unique=True))
        config = Configuration(lattice, tuple(balls), data.draw(st.text(max_size=8)))
        assert written(config) == reference_jsonl(config)


def reference_read_jsonl(source):
    """The per-line reader: ``json.loads`` on every line.  The reference for
    :func:`read_jsonl`, which must give the same configuration or raise the
    same error on every input."""
    if isinstance(source, str):
        with open(source) as fh:
            return reference_read_jsonl(fh)
    lines = [ln for ln in (raw.strip() for raw in source) if ln]
    if not lines:
        raise ValueError("line 1: empty configuration file")

    def load(lineno, text):
        try:
            rec = json.loads(text)
        except ValueError as exc:  # also Python's int-string limit, not only bad JSON
            raise ValueError(f"line {lineno}: {exc}") from None
        if not isinstance(rec, dict):
            raise ValueError(f"line {lineno}: expected a JSON object")
        return rec

    header = load(1, lines[0])
    for key in ("lattice", "n"):
        if key not in header:
            raise ValueError(f"line 1: header missing {key!r}")
    if not isinstance(header["lattice"], str):
        raise ValueError(f"line 1: lattice must be a descriptor string, got {header['lattice']!r}")
    try:
        lattice = parse_descriptor(header["lattice"])
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None
    provenance = header.get("provenance", "")
    if not isinstance(provenance, str):
        raise ValueError(f"line 1: provenance must be a string, got {provenance!r}")
    n = header["n"]
    if type(n) is not int or n < 0:
        raise ValueError(f"line 1: bad ball count {n!r}")
    if len(lines) - 1 != n:
        raise ValueError(f"line 1: header says {n} balls, file has {len(lines) - 1}")
    balls = []
    for lineno, text in enumerate(lines[1:], start=2):
        rec = load(lineno, text)
        i, j, k = rec.get("i"), rec.get("j"), rec.get("k")
        if not (type(i) is type(j) is type(k) is int):
            raise ValueError(f"line {lineno}: ball record needs integer i, j, k")
        balls.append((i, j, k))
    return Configuration(lattice, tuple(balls), provenance)


def outcome(read, text, newline="\n"):
    """What ``read`` makes of a file text, read with the given line end: the
    configuration, or the type and message of the error it raises."""
    if newline == "\n":
        stream = io.StringIO(text, newline=newline)
    else:  # StringIO would turn each "\n" of the text into the line end
        stream = io.TextIOWrapper(io.BytesIO(text.encode()), newline=newline)
    try:
        return read(stream)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def read_counting_loads(source):
    """read_jsonl's result and how many times it called ``json.loads``: once,
    for the header, when every ball line took the one-pass match."""
    with mock.patch("hexcontact.contact.json.loads", wraps=json.loads) as loads:
        config = read_jsonl(source)
    return config, loads.call_count


def read_counting_ints(source, monkeypatch):
    """read_jsonl's result and how many times the ``contact`` module called
    ``int`` after the one-pass match.  ``contact.int`` is shadowed from the
    match on, since the header checks compare types with ``int``."""
    pattern, calls = contact._BALL_LINE, []

    def counting_int(*args):
        calls.append(args)
        return int(*args)

    def findall(body):
        patch.setattr(contact, "int", counting_int, raising=False)
        return pattern.findall(body)

    with monkeypatch.context() as patch:
        patch.setattr(contact, "_BALL_LINE", mock.Mock(findall=findall))
        config = read_jsonl(source)
    return config, len(calls)


# The pieces of a JSON number, sign + integer part + fraction + exponent, as
# (valid, invalid) choices.  The valid ones give -0 and a 640-digit integer,
# the longest the ball-line pattern takes; the invalid ones add "+", leading
# zeros, 641 digits, non-ASCII digits and cut fractions and exponents.
PIECES = [
    (["", "-"], ["+"]),
    (["0", "7", "42", "1" + "0" * 639], ["00", "07", "1" + "0" * 640, "١", "1١", ""]),
    (["", ".5", ".05"], [".", ".٥"]),
    (["", "e5", "E5", "e+5", "E-05"], ["e", "E+", "e١"]),
]
BALL_FIELDS = ("index", "i", "j", "k", "x", "y", "z")


def number_pieces(field):
    """PIECES for a field of a ball line: index, i, j and k are integers, so
    any fraction or exponent is invalid there."""
    if field in ("x", "y", "z"):
        return PIECES
    return PIECES[:2] + [([""], valid[1:] + invalid) for valid, invalid in PIECES[2:]]


@st.composite
def ball_lines(draw):
    """A ball line in the writer's layout, its numbers joined from valid
    pieces, perhaps with one piece of one number drawn from the invalid ones."""
    numbers = [[draw(st.sampled_from(valid)) for valid, _ in number_pieces(f)] for f in BALL_FIELDS]
    if draw(st.booleans()):
        at, piece = draw(st.integers(0, len(BALL_FIELDS) - 1)), draw(st.integers(0, len(PIECES) - 1))
        numbers[at][piece] = draw(st.sampled_from(number_pieces(BALL_FIELDS[at])[piece][1]))
    return "{" + ", ".join(f'"{f}": {"".join(n)}' for f, n in zip(BALL_FIELDS, numbers)) + "}"


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Every configuration file of a hex sweep, an oct sweep and a hex and an
    oct exact column for n = 0..12, written by the command line."""
    out = tmp_path_factory.mktemp("cli_files")
    window = ["--window", "-1..1,-1..1,-1..1", "--n", "0..12"]
    runs = [
        ["sweep", "--layers", "-2..2", "--n", "120", "--restarts", "1", "--workers", "1"],
        ["sweep", "--lattice", "oct", "--n", "120", "--restarts", "4", "--workers", "1"],
        ["exhaustive", *window],
        ["exhaustive", "--lattice", "oct", *window],
    ]
    paths = []
    for idx, argv in enumerate(runs):
        assert cli.main([*argv, "--out", str(out / str(idx))]) == 0
        paths += sorted(str(p) for p in (out / str(idx)).glob("*.jsonl"))
    return paths


# A written file, perturbed: (description, file text, newline mode for reading).
HEADER_2 = '{"lattice": "oct", "n": 2, "provenance": ""}\n'
BALL_0 = '{"index": 0, "i": 1, "j": 0, "k": 0, "x": 1.0, "y": 0.0, "z": 0.0}\n'
BALL_1 = '{"index": 1, "i": 0, "j": 0, "k": 0, "x": 0.0, "y": 0.0, "z": 0.0}\n'


def with_i(value):
    return HEADER_2 + BALL_0.replace('"i": 1,', f'"i": {value},') + BALL_1


PERTURBED = [
    ("as written", HEADER_2 + BALL_0 + BALL_1, "\n"),
    ("split object", HEADER_2 + '{"i":1,"j":2,"k":3}, {"i":1,"j":2,"k":4,"p":[{}\n{}]}\n', "\n"),
    *((f"i = {value}", with_i(value), "\n") for value in ("01", "+1", "١", "1١", "1.", ".5", "1e2", "true", "-0")),
    ("x = NaN", HEADER_2 + BALL_0.replace('"x": 1.0', '"x": NaN') + BALL_1, "\n"),
    ("x = 1.٥", HEADER_2 + BALL_0.replace('"x": 1.0', '"x": 1.٥') + BALL_1, "\n"),
    ("x = Infinity", HEADER_2 + BALL_0.replace('"x": 1.0', '"x": Infinity') + BALL_1, "\n"),
    ("repeated i", HEADER_2 + BALL_0.replace('"i": 1,', '"i": 1, "i": 5,') + BALL_1, "\n"),
    ("reordered keys", HEADER_2 + '{"k": 0, "j": 0, "i": 1, "index": 0}\n' + BALL_1, "\n"),
    ("no space after colon", HEADER_2 + BALL_0.replace(": ", ":") + BALL_1, "\n"),
    ("padded lines", HEADER_2 + "  " + BALL_0.replace("\n", " \t\n") + "\t" + BALL_1, "\n"),
    ("blank lines", HEADER_2 + "\n" + BALL_0 + " \n\n" + BALL_1 + "\n", "\n"),
    ("CRLF", (HEADER_2 + BALL_0 + BALL_1).replace("\n", "\r\n"), "\n"),
    ("CR inside a line", HEADER_2 + BALL_0.replace(", ", ",\r ", 1) + BALL_1, "\n"),
    # read with "\r" as the line end, the two ball lines form one line
    ("LF inside a line", HEADER_2.replace("\n", "\r") + BALL_0 + BALL_1.replace("\n", "\r"), "\r"),
    ("LF inside a line, padded to n",
     HEADER_2.replace("\n", "\r") + BALL_0 + BALL_1.replace("\n", "\r") + "not json\r", "\r"),
    # beyond any integer-string limit; json.loads raises an unnumbered error
    ("5000-digit index", HEADER_2 + BALL_0.replace('"index": 0', '"index": ' + "9" * 5000) + BALL_1, "\n"),
    ("5000-digit x", HEADER_2 + BALL_0.replace('"x": 1.0', '"x": ' + "9" * 5000) + BALL_1, "\n"),
]


class TestJsonlReader:
    def test_written_files_match_reference_and_skip_json_loads(self, cli_files):
        assert len(cli_files) == 120 + 120 + 13 + 13
        for path in cli_files:
            config, loads = read_counting_loads(path)
            assert config == reference_read_jsonl(path), path
            assert loads == 1, path

    @pytest.mark.parametrize("text, newline", [p[1:] for p in PERTURBED], ids=[p[0] for p in PERTURBED])
    def test_perturbed_file_reads_as_reference(self, text, newline):
        assert outcome(read_jsonl, text, newline) == outcome(reference_read_jsonl, text, newline)

    def test_perturbations_cover_both_outcomes(self):
        outcomes = [outcome(reference_read_jsonl, text, newline) for _, text, newline in PERTURBED]
        assert any(isinstance(o, Configuration) for o in outcomes)
        assert any(isinstance(o, tuple) and o[1].startswith("line 2: ") for o in outcomes)
        assert any(isinstance(o, tuple) and "limit" in o[1] for o in outcomes)

    @pytest.mark.parametrize("text, lineno", [
        (HEADER_2 + BALL_0.replace('"index": 0', '"index": ' + "9" * 5000) + BALL_1, 2),
        (HEADER_2.replace('"n": 2', '"n": ' + "9" * 5000) + BALL_0 + BALL_1, 1),
    ], ids=["ball line", "header"])
    def test_oversized_integer_names_its_line(self, text, lineno):
        # Python's int-string limit raises a plain ValueError inside json.loads
        with pytest.raises(ValueError, match=rf"^line {lineno}: Exceeds the limit"):
            read_jsonl(io.StringIO(text))

    @given(st.data())
    def test_edited_file_reads_as_reference(self, data):
        text = HEADER_2 + BALL_0 + BALL_1
        at = data.draw(st.integers(len(HEADER_2), len(text)))
        cut = data.draw(st.integers(0, 2))
        insert = data.draw(st.text(alphabet='0123456789-+.eE",: {}\n\r١a', max_size=3))
        edited = text[:at] + insert + text[at + cut:]
        assert outcome(read_jsonl, edited) == outcome(reference_read_jsonl, edited)

    @given(st.data())
    def test_every_written_line_takes_the_one_pass_match(self, data):
        # a change to the writer's layout must not silently move files to
        # the per-line path
        coordinate = st.integers(-10**17, 10**17) | st.sampled_from([-10**17, 10**17, 0, -1])
        if data.draw(st.booleans()):
            lattice, layers = OCT, coordinate
        else:
            lattice, layers = Hexagonal(NINE_LAYER_SEQS[data.draw(st.integers(0, 255))]), st.integers(-4, 4)
        balls = data.draw(st.lists(st.tuples(coordinate, coordinate, layers), max_size=6, unique=True))
        config = Configuration(lattice, tuple(balls), data.draw(st.text(max_size=4)))
        assert read_counting_loads(io.StringIO(written(config))) == (config, 1)

    @pytest.mark.parametrize("lattice", [OCT, UP_GRID])
    def test_exponent_coordinates_take_the_one_pass_match(self, lattice):
        config = Configuration(lattice, ((10**17, 0, 0), (-10**17, 10**17, -1)))
        text = written(config)
        assert "e+17" in text
        assert read_counting_loads(io.StringIO(text)) == (config, 1)

    @settings(max_examples=300)
    @given(st.lists(ball_lines(), min_size=1, max_size=4))
    def test_ball_line_pattern_matches_reference(self, lines):
        for body in (*lines, "\n".join(lines)):
            assert contact._BALL_LINE.findall(body) == BALL_LINE.findall(body)
        # the lines that match, read as a file, take the one-pass decode
        kept = [line for line in lines if BALL_LINE.match(line)]
        text = json.dumps({"lattice": "oct", "n": len(kept)}) + "".join("\n" + line for line in kept)
        config, loads = read_counting_loads(io.StringIO(text))
        assert (config.balls, loads) == (tuple(decode_ball_lines("\n".join(kept))), 1)
        text = json.dumps({"lattice": "oct", "n": len(lines)}) + "".join("\n" + line for line in lines)
        assert outcome(read_jsonl, text) == outcome(reference_read_jsonl, text)

    @pytest.mark.parametrize("kind", ["hex", "oct"])
    def test_one_int_per_distinct_coordinate_string(self, swept_configs, kind, tmp_path, monkeypatch):
        config = swept_configs[kind][-1]
        path = str(tmp_path / "c200.jsonl")
        write_jsonl(config, path)
        distinct = {str(c) for ball in config.balls for c in ball}
        assert len(config) == 200 and len(distinct) < 3 * 200
        read, ints = read_counting_ints(path, monkeypatch)
        assert read == config
        assert ints <= len(distinct), f"{ints} int() calls for {len(distinct)} distinct coordinates"
