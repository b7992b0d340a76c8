import json
import math

import numpy as np
import pytest

from moltop.cli import main
from moltop.errors import LayoutMismatchError
from moltop.filtration import FILTRATION_KINDS, make_spec
from moltop.homology import PersistenceDiagram
from moltop.metrics import fingerprint_distance, matching_report, wasserstein
from moltop.molgraph import graph_to_json_dict, parse_smiles
from moltop.vectorize import (
    Fingerprint,
    FingerprintLayout,
    assemble,
)

from oracles import assign_reference_charges_by_replace, exhaustive_wasserstein, mirror
from rows import row_diagrams

ALL_SPECS = [make_spec(k) for k in FILTRATION_KINDS]


def pd_of(pairs, essentials=(), dim=0, eps_max=10):
    return PersistenceDiagram(dim, tuple(sorted(pairs)), tuple(sorted(essentials)),
                              eps_max)


def random_diagram(rng, max_points=4, eps_max=10):
    points = []
    for _ in range(rng.integers(0, max_points + 1)):
        b = int(rng.integers(0, eps_max - 1))
        d = int(rng.integers(b + 1, eps_max + 1))
        points.append((b, d))
    return pd_of(points, eps_max=eps_max)


class TestWasserstein:
    def test_identical_diagrams_zero(self):
        pd = pd_of([(0, 2), (1, 3)])
        assert wasserstein(pd, pd, 1.0) == 0.0

    def test_single_point_to_diagonal(self):
        assert wasserstein(pd_of([(0, 2)]), pd_of([]), 1.0) == pytest.approx(1.0)

    def test_direct_match_beats_diagonal(self):
        assert wasserstein(pd_of([(0, 1)]), pd_of([(0, 2)]), 1.0) == pytest.approx(1.0)

    def test_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(120):
            a, b = random_diagram(rng), random_diagram(rng)
            p = float(rng.choice([1.0, 2.0]))
            expected = exhaustive_wasserstein(a.pairs, b.pairs, p)
            assert wasserstein(a, b, p) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            a, b, c = (random_diagram(rng) for _ in range(3))
            dab = wasserstein(a, b, 1.0)
            dba = wasserstein(b, a, 1.0)
            assert dab == dba
            assert dab <= wasserstein(a, c, 1.0) + wasserstein(c, b, 1.0) + 1e-9

    def test_essential_counts_must_match(self):
        a = pd_of([], essentials=[0, 0])
        b = pd_of([], essentials=[0])
        assert math.isinf(wasserstein(a, b, 1.0))

    def test_essentials_compared_by_birth(self):
        a = pd_of([], essentials=[0, 2], dim=1)
        b = pd_of([], essentials=[1, 5], dim=1)
        assert wasserstein(a, b, 1.0) == pytest.approx(4.0)  # |0-1| + |2-5|

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            wasserstein(pd_of([]), pd_of([]), 0.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_p_rejected(self, p):
        # p = inf used to return 2.0 for a pair of identical one-point diagrams
        with pytest.raises(ValueError):
            wasserstein(pd_of([(0, 2)]), pd_of([(0, 2)]), p)


def charged(smiles):
    return assign_reference_charges_by_replace(parse_smiles(smiles))


def row_oracle(a, b):
    """W1 between two diagrams: essentials by sorted birth, pairs enumerated."""
    if len(a.essentials) != len(b.essentials):
        return math.inf
    return (sum(abs(x - y) for x, y in zip(sorted(a.essentials), sorted(b.essentials)))
            + exhaustive_wasserstein(a.pairs, b.pairs, 1.0))


class TestInducedDistance:
    """``matching_report(...).induced`` sums the per-row W1 distances."""

    def test_identical_rows_zero(self, random_graphs):
        for g in random_graphs[:3]:
            assert matching_report(g, g, ALL_SPECS, 10).induced == 0.0

    def test_single_differing_row(self):
        # Mirroring alanine's one stereocenter changes only the chirality
        # level that holds the CW centers.
        g = charged("N[C@@H](C)C(=O)O")
        report = matching_report(g, mirror(g), ALL_SPECS, 10)
        differing = [i for i, w in enumerate(report.per_row) if w != 0]
        assert len(differing) == 1
        (_, _, a0, a1) = row_diagrams(g, ALL_SPECS, 10)[0][differing[0]]
        (_, _, b0, b1) = row_diagrams(mirror(g), ALL_SPECS, 10)[0][differing[0]]
        assert report.induced == wasserstein(a0, b0) + wasserstein(a1, b1) > 0

    def test_three_row_toy_matches_per_row_oracle(self):
        specs = [make_spec("CHIRALITY")]
        chiral = charged("F[C@H](Cl)Br")
        for a, b in ((chiral, mirror(chiral)), (charged("O"), charged("C")),
                     (charged("C#N"), charged("CO"))):
            expected = sum(row_oracle(a0, b0) + row_oracle(a1, b1)
                           for (_, _, a0, a1), (_, _, b0, b1)
                           in zip(row_diagrams(a, specs, 4)[0], row_diagrams(b, specs, 4)[0]))
            induced = matching_report(a, b, specs, 4).induced
            assert induced == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_nonnegativity(self, random_graphs):
        graphs = random_graphs[:5]
        for a, b in zip(graphs, graphs[1:] + [mirror(graphs[0])]):
            d = matching_report(a, b, ALL_SPECS, 10).induced
            assert d >= 0
            assert d == matching_report(b, a, ALL_SPECS, 10).induced


class TestFingerprintDistance:
    def test_self_distance_zero(self):
        g = assign_reference_charges_by_replace(parse_smiles("CCO"))
        fp = assemble(g, ALL_SPECS, 8)
        assert fingerprint_distance(fp, fp) == 0.0

    def test_l1_arithmetic(self):
        layout = FingerprintLayout("1", ("CHIRALITY",), 3)
        vec_a = np.zeros(layout.length, dtype=np.int64)
        vec_a[4:8] = [0, 1, 1, 0]
        vec_b = np.zeros(layout.length, dtype=np.int64)
        a = Fingerprint("a", layout, vec_a)
        b = Fingerprint("b", layout, vec_b)
        assert fingerprint_distance(a, b) == 2.0

    def test_mirror_distance_in_chirality_rows(self):
        g = assign_reference_charges_by_replace(parse_smiles("N[C@@H](C)C(=O)O"))
        fp = assemble(g, ALL_SPECS, 10)
        fp_m = assemble(mirror(g), ALL_SPECS, 10)
        d = fingerprint_distance(fp, fp_m)
        assert d > 0
        blocks = fp.layout.block_slices()
        ch = sum(float(np.abs(fp.vector[blocks[("CHIRALITY", dim)]]
                              - fp_m.vector[blocks[("CHIRALITY", dim)]]).sum())
                 for dim in (0, 1))
        assert d == pytest.approx(ch)  # everything outside CH cancels

    def test_layout_mismatch(self):
        la = FingerprintLayout("1", ("CHIRALITY",), 3)
        lb = FingerprintLayout("1", ("CHIRALITY",), 4)
        a = Fingerprint("a", la, np.zeros(la.length, dtype=np.int64))
        b = Fingerprint("b", lb, np.zeros(lb.length, dtype=np.int64))
        with pytest.raises(LayoutMismatchError):
            fingerprint_distance(a, b)


class TestStabilityProbe:
    def test_identical_pair_skipped_ratio(self):
        g = assign_reference_charges_by_replace(parse_smiles("CCO"))
        report = matching_report(g, g, ALL_SPECS, 8)
        assert report.induced == 0.0
        assert report.vector_distance == 0.0
        assert report.ratio is None

    def test_single_perturbation_finite_ratio(self):
        g = assign_reference_charges_by_replace(parse_smiles("N[C@@H](C)C(=O)O"))
        report = matching_report(g, mirror(g), ALL_SPECS, 10)
        assert report.induced > 0
        assert report.vector_distance > 0
        assert report.ratio == pytest.approx(report.vector_distance / report.induced)
        assert len(report.per_row) == sum(s.levels for s in ALL_SPECS)

    def test_probe_reports_max_ratio(self, random_graphs, tmp_path, capsys):
        # `moltop distance` summarizes mirror pairs by their largest ratio
        graphs = random_graphs[:6]
        pairs = [{"a": graph_to_json_dict(g), "b": graph_to_json_dict(mirror(g))}
                 for g in graphs]
        (tmp_path / "pairs.json").write_text(json.dumps(pairs))
        assert main(["distance", "--pairs", str(tmp_path / "pairs.json"),
                     "--k-grid", "10", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "distances.jsonl").read_text().splitlines()
        ratios = [matching_report(g, mirror(g), ALL_SPECS, 10).ratio for g in graphs]
        assert [json.loads(line)["ratio"] for line in lines[:-1]] == ratios
        ratios = [r for r in ratios if r is not None]
        expected = max(ratios) if ratios else None
        assert json.loads(lines[-1])["summary"]["max_ratio"] == expected
