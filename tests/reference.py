"""Slow reference helpers that the tests check the package against."""

import itertools
import math
import re

from hexcontact.contact import Configuration, DuplicateBallError
from hexcontact.lattice import EpsilonSeq, Hexagonal, scaled_sq_dist

SQRT3 = math.sqrt(3.0)

# Generators of the planar hexagonal layer and the two layer-step vectors,
# in Cartesian coordinates: an independent check of ``cartesian``.
PLANAR_I = (2.0, 0.0, 0.0)
PLANAR_J = (1.0, SQRT3, 0.0)
STEP_UP_PLUS = (1.0, math.sqrt(1.0 / 3.0), math.sqrt(8.0 / 3.0))    # vertical + horizontal
STEP_UP_MINUS = (-1.0, -math.sqrt(1.0 / 3.0), math.sqrt(8.0 / 3.0))  # vertical - horizontal

# Generators of the octahedral lattice.
OCT_GEN_X = (2.0, 0.0, 0.0)
OCT_GEN_Y = (0.0, 2.0, 0.0)
OCT_GEN_Z = (1.0, 1.0, math.sqrt(2.0))


def is_contact(lattice, p, q):
    """True when the unit balls centered at ``p`` and ``q`` touch."""
    if p == q:
        raise ValueError(f"contact undefined for a ball and itself: {p}")
    return scaled_sq_dist(lattice, p, q) == lattice.contact


def neighbors(lattice, p):
    """All lattice points in contact with ``p``, ordered by coordinate offset.

    Interior points have exactly 12 neighbors; hexagonal points in the top or
    bottom layer lose the 3 neighbors of the missing adjacent layer.
    """
    a, b, k = p
    return [(a + da, b + db, k + dk) for da, db, dk in lattice.offsets(k)]


def flipped(seq):
    """The sequence with every sign negated: the mirror grid."""
    return EpsilonSeq(seq.t1, seq.t2, tuple(-v for v in seq.signs))


def incremental_delta(config, p):
    """Contacts a new ball at ``p`` would add to the configuration, one
    scaled_sq_dist call per placed ball."""
    if p in config.balls:
        raise DuplicateBallError(config.balls.index(p), len(config.balls))
    lattice = config.lattice
    return sum(1 for b in config.balls if scaled_sq_dist(lattice, p, b) == lattice.contact)


def reflect_configuration(config):
    """Mirror image of a hexagonal-grid configuration on the flipped grid."""
    mirrored = Hexagonal(flipped(config.lattice.seq))
    return Configuration(mirrored, tuple((-i, -j, k) for i, j, k in config.balls), config.provenance)


def all_pairs_report(cfg):
    """Contacts, degrees and minimum scaled distance from one loop over all
    pairs of lifted balls: the reference for both of verify's paths on
    configurations too large for a scaled_sq_dist call per pair."""
    threshold = cfg.lattice.contact
    cu, cw = (3, 8) if isinstance(cfg.lattice, Hexagonal) else (1, 2)
    lifted = [cfg.lattice.lift(b) for b in cfg.balls]
    degrees = [0] * len(lifted)
    low = None
    for (i, (u, v, w)), (j, (x, y, z)) in itertools.combinations(enumerate(lifted), 2):
        d = cu * (u - x) ** 2 + (v - y) ** 2 + cw * (w - z) ** 2
        low = d if low is None else min(low, d)
        if d == threshold:
            degrees[i] += 1
            degrees[j] += 1
    return sum(degrees) // 2, tuple(degrees), low


# The ball-line pattern with its optional fraction and exponent written as
# ``(?:...)?`` groups, and a decode with one int() per coordinate: the
# reference for ``contact._BALL_LINE`` and read_jsonl's one-pass decode.
_JSON_INT = r"-?(?:0|[1-9][0-9]{0,639})"
_JSON_NUMBER = _JSON_INT + r"(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
BALL_LINE = re.compile(
    rf'^\{{"index": {_JSON_INT}, "i": ({_JSON_INT}), "j": ({_JSON_INT}), "k": ({_JSON_INT}), '
    rf'"x": {_JSON_NUMBER}, "y": {_JSON_NUMBER}, "z": {_JSON_NUMBER}\}}$',
    re.MULTILINE,
)


def decode_ball_lines(body):
    """The balls of every line of ``body`` that matches ``BALL_LINE``."""
    return [(int(i), int(j), int(k)) for i, j, k in BALL_LINE.findall(body)]


# The published cases in which the octahedral greedy beat the hexagonal one,
# as n -> (hexagonal, octahedral).
REFERENCE_OCT_BETTER = {
    14: (39, 40),
    15: (43, 44),
    57: (227, 228),
    58: (232, 233),
    59: (236, 237),
    176: (810, 811),
    177: (815, 817),
    178: (820, 822),
    179: (825, 828),
    180: (830, 833),
    181: (834, 837),
    182: (839, 841),
}
