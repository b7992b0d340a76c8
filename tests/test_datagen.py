"""The generator's element draw and its one-pass molecule build, against
``Generator.choice`` and the ``replace``-built generator in ``oracles``."""

from dataclasses import replace

import numpy as np
import pytest

from moltop.datagen import (
    _ELEMENT_CDF,
    _ELEMENT_POOL,
    _ELEMENT_WEIGHTS,
    _draw_element,
    _reference_charges,
    random_molecule,
)
from moltop.molgraph import CHI_CCW, CHI_CW, parse_smiles

from oracles import assign_reference_charges_by_replace, random_molecule_by_replace


def numpy_cdf() -> np.ndarray:
    """The CDF ``Generator.choice`` searches: the cumulative weights over their last sum."""
    cdf = np.asarray(_ELEMENT_WEIGHTS, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


class FixedDraw:
    """A generator whose ``random()`` returns one chosen double."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


def test_cdf_is_the_one_generator_choice_searches():
    assert _ELEMENT_CDF == numpy_cdf().tolist()
    # at and next to every step, the draw lands where searchsorted(side="right") does
    probes = np.concatenate([[0.0], numpy_cdf(), np.nextafter(numpy_cdf(), 0.0),
                             np.nextafter(numpy_cdf(), 2.0)])
    probes = probes[probes < 1.0]  # random() is below 1
    assert [_draw_element(FixedDraw(x)) for x in probes.tolist()] == \
        [_ELEMENT_POOL[i] for i in numpy_cdf().searchsorted(probes, side="right")]


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_cdf_draw_is_generator_choice_on_a_shared_stream(seed):
    # Twin generators, with the integers and random calls random_molecule
    # interleaves between its element draws: every draw and the final
    # state must agree.
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn, chosen, between = [], [], []
    for i in range(20_000):
        drawn.append(_draw_element(ours))
        chosen.append(str(theirs.choice(_ELEMENT_POOL, p=_ELEMENT_WEIGHTS)))
        if i % 3 == 0:
            between.append((ours.integers(5, 23), theirs.integers(5, 23)))
        if i % 2 == 0:
            between.append((ours.integers(i % 19 + 1), theirs.integers(i % 19 + 1)))
        if i % 5 == 0:
            between.append((ours.random(), theirs.random()))
    assert drawn == chosen
    assert all(a == b for a, b in between)
    assert set(drawn) == set(_ELEMENT_POOL)
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 11])
def test_molecules_equal_the_replace_built_ones(seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    tags, orders = set(), set()
    for i in range(400):
        graph = random_molecule(ours, f"m{i}")
        assert graph == random_molecule_by_replace(theirs, f"m{i}"), i
        assert ours.bit_generator.state == theirs.bit_generator.state, i
        tags.update(a.chirality for a in graph.atoms)
        orders.update(b.order for b in graph.bonds)
        assert all(type(b.a) is int and type(b.b) is int for b in graph.bonds)
    assert {CHI_CW, CHI_CCW} <= tags and {"DOUBLE", "TRIPLE"} <= orders


def test_random_graphs_and_their_charges_equal_the_replace_built_ones(random_graphs):
    rng = np.random.default_rng(31)  # the fixture's stream
    assert random_graphs == [random_molecule_by_replace(rng, f"rg{i}") for i in range(40)]


SMILES = ["[NH4+].[Cl-]", "C[N+](C)(C)C.[O-]C(=O)C", "[O-][N+](=O)c1ccccc1", "[BH4-]",
          "c1cc[cH-]c1", "N[C@@H](C)C(=O)O", "F[C@H](Cl)Br", "C[C@]1(O)CC[C@@H](N)CC1",
          "NC1=NC(=O)N(C=C1)[C@@H]1CS[C@H](CO)O1", "[O-]C(=O)[C@@H]([NH3+])Cc1ccccc1"]


def test_reference_charges_keep_formal_charges_and_tags():
    formal, tags = set(), set()
    for smiles in SMILES:
        parsed = parse_smiles(smiles, name="m")
        charged = assign_reference_charges_by_replace(parsed)
        assert [a.partial_charge for a in charged.atoms] == _reference_charges(
            [a.element for a in parsed.atoms], ((b.a, b.b, b.order) for b in parsed.bonds)), smiles
        assert charged.name == parsed.name and charged.bonds == parsed.bonds
        assert [replace(a, partial_charge=None) for a in charged.atoms] == list(parsed.atoms)
        assert all(a.partial_charge is not None for a in charged.atoms)
        formal.update(a.formal_charge for a in parsed.atoms)
        tags.update(a.chirality for a in parsed.atoms)
    assert {-1, 1} <= formal and {CHI_CW, CHI_CCW} <= tags
