"""Sublevel rows through the stacked VR build and reduction one at a time,
for the tests that check rows one by one."""

import numpy as np

from moltop.homology import build_rows, reduce_rows
from moltop.vectorize import expand_cores, row_cores

from oracles import check_stack


def build_stack(vertex_sets, hops, eps_max):
    """A stack of the rows on ``vertex_sets``, checked by ``check_stack``."""
    sets = np.zeros((len(vertex_sets), np.shape(hops)[-1]), dtype=bool)
    for row, vertices in zip(sets, vertex_sets):
        row[list(vertices)] = True
    stack = build_rows(sets, hops, eps_max)
    check_stack(stack)
    return stack


def build_row(vertices, hops, eps_max):
    """A stack holding the one row on ``vertices``."""
    return build_stack([vertices], hops, eps_max)


def reduce_row(vertices, hops, eps_max):
    """(PD_0, PD_1) of the row on ``vertices``, reduced alone."""
    return reduce_rows(build_row(vertices, hops, eps_max)).diagrams()[0]


def row_diagrams(graph, specs, k_grid, distance_mode="full_graph"):
    """(kind, row index, PD_0, PD_1) for every sublevel row, in layout order,
    and the graph's hop diameter: ``row_cores`` expanded row by row."""
    specs = list(specs)
    cores = row_cores(graph, specs, k_grid, distance_mode)
    return expand_cores(cores, specs, k_grid), cores.diameter
