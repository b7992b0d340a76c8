"""Deterministic synthetic benchmark dataset.

Generates connected, valence-correct molecular graphs over the supported
elements (explicit hydrogens, ring systems, tetrahedral stereocenters,
heuristic partial charges) together with a regression target that mixes
mass-profile, ring/bond, charge-cluster, and chirality structure, so every
filtration family carries signal.  Fixed (count, seed) pairs reproduce the
dataset byte for byte.  Elements are drawn by ``Generator.choice``'s rule, one
``random()`` double bisected into the weights' CDF; each molecule is built once.

Run ``python -m moltop.datagen --out bench.jsonl`` to materialize it.
"""

import argparse
import json
from bisect import bisect_right

import numpy as np

from .elements import VALENCES
from .molgraph import (CHI_CCW, CHI_CW, CHI_NONE, Atom, Bond, MolecularGraph,
                       graph_to_json_dict, ring_bonds)

# Pauling electronegativities, used only to fabricate plausible input charges.
ELECTRONEGATIVITY = {"H": 2.20, "B": 2.04, "C": 2.55, "N": 3.04, "O": 3.44,
                     "F": 3.98, "P": 2.19, "S": 2.58, "Cl": 3.16, "Br": 2.96,
                     "I": 2.66}

_ELEMENT_POOL = ("C", "N", "O", "S", "F", "Cl", "Br", "P", "I")
_ELEMENT_WEIGHTS = (0.62, 0.12, 0.12, 0.04, 0.04, 0.03, 0.015, 0.01, 0.005)
# Generator.choice(pool, p=weights) returns pool[bisect_right(this, rng.random())].
_ELEMENT_CDF = np.cumsum(_ELEMENT_WEIGHTS)
_ELEMENT_CDF = (_ELEMENT_CDF / _ELEMENT_CDF[-1]).tolist()
_ORDER_FACTOR = {"SINGLE": 1.0, "DOUBLE": 1.6, "TRIPLE": 2.0, "AROMATIC": 1.3}


def _reference_charges(elements, bonds) -> list[float]:
    """Electronegativity-difference charges of atoms ``elements`` joined by
    ``(a, b, order)`` bonds, summed in bond order and rounded to 4 places: the
    dataset's input charges, which depend only on local bond structure, so they
    commute with relabeling and mirroring."""
    totals, chi = [0.0] * len(elements), [ELECTRONEGATIVITY[e] for e in elements]
    for a, b, order in bonds:
        shift = (chi[b] - chi[a]) * 0.05 * _ORDER_FACTOR[order]
        totals[a] += shift
        totals[b] -= shift
    return [round(total, 4) for total in totals]


def _draw_element(rng: np.random.Generator) -> str:
    return _ELEMENT_POOL[bisect_right(_ELEMENT_CDF, rng.random())]


def random_molecule(rng: np.random.Generator, name: str) -> MolecularGraph:
    """One connected, valence-correct molecule with explicit hydrogens."""
    target_heavy = int(rng.integers(5, 23))
    first = _draw_element(rng)
    if VALENCES[first][0] < 2:
        first = "C"  # a terminal first atom cannot grow a tree
    elements = [first]
    free = [VALENCES[first][0]]
    bonds: list[tuple[int, int, str]] = []
    adj: list[set[int]] = [set()]

    while len(elements) < target_heavy:
        open_atoms = [v for v in range(len(elements)) if free[v] >= 1]
        if not open_atoms:
            break
        child = len(elements)
        element = _draw_element(rng)
        elements.append(element)
        free.append(VALENCES[element][0])
        adj.append(set())
        parent = open_atoms[rng.integers(len(open_atoms))]
        order = "SINGLE"
        if free[parent] >= 2 and free[child] >= 2 and rng.random() < 0.12:
            order = "DOUBLE"
            if free[parent] >= 3 and free[child] >= 3 and rng.random() < 0.15:
                order = "TRIPLE"
        used = {"SINGLE": 1, "DOUBLE": 2, "TRIPLE": 3}[order]
        free[parent] -= used
        free[child] -= used
        bonds.append((parent, child, order))
        adj[parent].add(child)
        adj[child].add(parent)
    n_heavy = len(elements)

    for _ in range(int(rng.integers(0, 3))):
        candidates = [v for v in range(n_heavy) if free[v] >= 1]
        if len(candidates) < 2:
            break
        for _attempt in range(8):
            u, v = (int(x) for x in rng.choice(candidates, size=2, replace=False))
            if v in adj[u]:
                continue
            if not 2 <= _hop_distance(adj, u, v) <= 7:
                continue
            free[u] -= 1
            free[v] -= 1
            bonds.append((min(u, v), max(u, v), "SINGLE"))
            adj[u].add(v)
            adj[v].add(u)
            break

    parents = [v for v in range(n_heavy) for _ in range(free[v])]  # hydrogens, in parent order
    bonds += [(p, n_heavy + k, "SINGLE") for k, p in enumerate(parents)]
    elements += ["H"] * len(parents)
    bonds.sort()  # every bond is (low, high) and no pair repeats
    tags = [CHI_NONE] * len(elements)
    tagged = 0
    for v in range(n_heavy):  # a hydrogen has degree 1
        if len(adj[v]) + free[v] == 4 and tagged < 3 and rng.random() < 0.3:
            tags[v] = CHI_CW if rng.random() < 0.5 else CHI_CCW
            tagged += 1
    charges = _reference_charges(elements, bonds)
    return MolecularGraph(name, tuple(map(Atom, elements, [0] * len(elements), charges, tags)),
                          tuple(Bond(a, b, order) for a, b, order in bonds))


def _hop_distance(adj, source, goal) -> int:
    if source == goal:
        return 0
    seen = {source}
    frontier = [source]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w == goal:
                    return dist
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return -1


def structure_scores(graph: MolecularGraph) -> tuple[float, float, float, float]:
    """Raw (mass-profile, ring/bond, charge-cluster, chirality) scores."""
    counts: dict[str, int] = {}
    for atom in graph.atoms:
        counts[atom.element] = counts.get(atom.element, 0) + 1
    heavy_rare = sum(counts.get(e, 0) for e in ("S", "F", "Cl", "Br", "P", "I"))
    z_mass = (0.35 * counts.get("C", 0) + 0.9 * counts.get("N", 0)
              + 1.4 * counts.get("O", 0) + 2.0 * heavy_rare
              + 0.08 * counts.get("H", 0))

    cyclic = ring_bonds(graph)
    rings = {v for pair in cyclic for v in pair}
    double_ends = set()
    for bond in graph.bonds:
        if bond.order in ("DOUBLE", "TRIPLE") and bond.endpoints not in cyclic:
            double_ends.update(bond.endpoints)
    z_ring = len(rings) + 0.7 * len(double_ends - rings)

    charges = [a.partial_charge for a in graph.atoms]
    median = sorted(charges)[(len(charges) - 1) // 2]
    low = {v for v, charge in enumerate(charges) if charge <= median}
    parent = {v: v for v in low}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for bond in graph.bonds:
        if bond.a in low and bond.b in low:
            parent[find(bond.a)] = find(bond.b)
    z_charge = float(len({find(v) for v in low}))

    cw = sum(1 for a in graph.atoms if a.chirality == CHI_CW)
    ccw = sum(1 for a in graph.atoms if a.chirality == CHI_CCW)
    z_chiral = (cw - ccw) + 0.3 * (cw + ccw)
    return z_mass, z_ring, z_charge, z_chiral


def generate_dataset(count: int = 1128, seed: int = 7) -> list[dict]:
    """Records of {record_id, target, graph}; deterministic in (count, seed)."""
    rng = np.random.default_rng(seed)
    graphs = [random_molecule(rng, f"mol{i:05d}") for i in range(count)]
    scores = np.array([structure_scores(g) for g in graphs])
    std = scores.std(axis=0)
    std[std == 0] = 1.0
    z = (scores - scores.mean(axis=0)) / std
    noise = rng.normal(0.0, 1.0, count)
    targets = (1.0 * z[:, 0] + 0.8 * z[:, 1] + 0.6 * z[:, 2] + 0.5 * z[:, 3]
               + 0.35 * noise)
    return [{"record_id": g.name, "target": round(float(t), 6),
             "graph": graph_to_json_dict(g)}
            for g, t in zip(graphs, targets)]


def write_dataset(path, count: int = 1128, seed: int = 7):
    records = generate_dataset(count, seed)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Generate the synthetic solubility-style benchmark dataset")
    parser.add_argument("--out", required=True, help="output JSONL path")
    parser.add_argument("--count", type=int, default=1128)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    write_dataset(args.out, args.count, args.seed)
    print(f"wrote {args.count} records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
