"""One sublevel row through the stacked VR build and reduction, for the
tests that check rows one at a time."""

from moltop.homology import build_rows, reduce_rows


def build_row(vertices, hops, eps_max):
    """A stack holding the one row on ``vertices``."""
    return build_rows([vertices], hops, eps_max)


def reduce_row(vertices, hops, eps_max):
    """(PD_0, PD_1) of the row on ``vertices``, reduced alone and validated."""
    return reduce_rows(build_row(vertices, hops, eps_max))[0]
