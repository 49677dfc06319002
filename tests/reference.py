"""Slow reference helpers that the tests check the package against."""

from hexcontact.contact import Configuration, DuplicateBallError
from hexcontact.lattice import Hexagonal, scaled_sq_dist


def incremental_delta(config, p):
    """Contacts a new ball at ``p`` would add to the configuration, one
    scaled_sq_dist call per placed ball."""
    if p in config.balls:
        raise DuplicateBallError(config.balls.index(p), len(config.balls))
    lattice = config.lattice
    return sum(1 for b in config.balls if scaled_sq_dist(lattice, p, b) == lattice.contact)


def reflect_configuration(config):
    """Mirror image of a hexagonal-grid configuration on the flipped grid."""
    mirrored = Hexagonal(config.lattice.seq.flipped())
    return Configuration(mirrored, tuple((-i, -j, k) for i, j, k in config.balls), config.provenance)
