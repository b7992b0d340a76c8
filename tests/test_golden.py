"""Golden pins: the generated datasets and the molecule JSON of a SMILES
corpus and the artifacts of one ``bench`` run, byte for byte.  A change to
parsing, hydrogen placement, stereo normalization, dataset generation or the
benchmark runner that moves any byte fails here."""

import hashlib
import json

import pytest

from moltop.datagen import generate_dataset
from moltop.harness import run_benchmark, run_config_from_dict
from moltop.molgraph import graph_to_json_dict, parse_smiles


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("count,seed,digest", [
    (1128, 7, "da8e48b89275882cb5336d24f96b6a07c3d4be6855775ad0c466177458c8973f"),
    (60, 3, "e82f146c588f22cece8db29b8d0973159662e82f30ce4b948324c47b60231fbc"),
])
def test_generated_dataset_bytes(count, seed, digest, bench_records):
    records = bench_records if (count, seed) == (1128, 7) else generate_dataset(count, seed)
    assert sha256("".join(json.dumps(r, sort_keys=True) + "\n" for r in records)) == digest


@pytest.mark.parametrize("smiles,digest", [
    # stereocenters: bracket H, ring closures at the center, a leading center
    ("N[C@@H](C)C(=O)O", "f80ddb612aa93d3f87dbf2155816bd6646477b0b5d36ff931c9525a105362ca0"),
    ("N[C@@H]1OC(C)CC1", "524c880a9a230a14773d213dabd52b2cf48fe04f5ec3996cc1f16a9cc5751380"),
    ("[C@@H](F)(Cl)Br", "240d49e547ca16abaaec9cfb837954e804a5938785379f342ac849f4e4713462"),
    ("F[C@H](Cl)Br", "1cea62b18629f3b20969877b7640f43685b2972c2d960c01f5d11e7860da56a8"),
    ("NC1=NC(=O)N(C=C1)[C@@H]1CS[C@H](CO)O1",
     "90b90eea25617181fc9554a169ff3f39920017e1c395b5030d7d7d2c1173a81d"),
    ("C[C@]1(O)CC[C@@H](N)CC1", "48895e279967a9bee310dd3657345594af2ce959c74ca2bf46bd4281af584e33"),
    # charges, several components
    ("[NH4+].[Cl-]", "b02b64f1c9a94fc8ffcea1ccc5777063745cfbf4c89df1cef2a6157f0781b16a"),
    ("C[N+](C)(C)C.[O-]C(=O)C", "c2b4a9ccaecb3cf3d8f5862ba1e66399fc301b0e53280dfa4ccc69418209f91a"),
    ("[O-][N+](=O)c1ccccc1", "aebcd5ae60be1ad824f34ad07cb957b43a52f2dde5d8b367f6d106ef24633f5e"),
    ("[BH4-]", "921ee07d2331d030ff2680e77a25af077b2d7fb02c5715137389300d4f6be140"),
    ("CC.O.[Cl-]", "92d3fb21685201d07902549358f9b00258fec39fec9dba2818cb8f37dfc80ba1"),
    ("C1CCC1.C1CCCC1.O", "1dcae1b7006cbe9c9d2855af1c8a080d8018207f918c6e84a66f8ff733c33362"),
    # aromatics, with and without a bracket H
    ("c1ccccc1", "c49ce4ccc8036ed72fc83826cb7962177cd727277bb7e4c2b45c483457592ead"),
    ("c1ccncc1", "398a3f733d34fa5797eab5ce829bf5d981e9f9abc9750c7b7ab02e0481294caa"),
    ("c1cc[nH]c1", "e55fddfac65b48ef66c2d2eb137c49581ae9eeca31ced6878fddc4fcccd06e7a"),
    ("c1ccoc1", "1aa53ef4821248c25115604ba29cad7d0e750e326cd9bc8d74fe585420352777"),
    ("c1ccsc1", "6fdfbf02c2fbd55ea3b9ecdd98b35adecd93595bade94ba2e6c1f1c50d252e3d"),
    # bond orders, %nn closures, bracket hydrogens, the halogens
    ("O=S(=O)(O)O", "83ead064047e1636d51e76fddace6d3fd135bb4a55f4610f8e45beecf44f54bf"),
    ("OP(=O)(O)O", "b79917c65d78d636edd4b2223c089007bb46f4e897458cedf6876ad75331bf51"),
    ("C#N", "d3ac72a5020d4188a13b7c5ce69216865853215ecf66b92222eac8bf8839c4fa"),
    ("C%12CC%12", "8271d5789f2c1e9c33b08e75deda9d3bd64a25df9ecbd57bf2d2f1c37d7be912"),
    ("[H][H]", "6a902fa5c4816657b0c89aed5f6e0bdfabff1f118e9c51039cac0c2e5fe6fb0a"),
    ("[CH2]=[CH2]", "bee4c85d7c132cf9fb2c757475c034eeb114167b42ba9cd443163d2474665ad2"),
    ("BrC(I)F", "f0ca5131867dc903abc6b039698427adee6f042ee15c9ffa41ad3b31412e5f6a"),
    # bracket charges and hydrogen counts in every written form: a repeated
    # sign, a count, a zero-padded count, and an aromatic anion in a ring
    ("[CH2++]", "17fb7a67d34d5f0a469c86a3d9f277afeba715e9d1d9f8f158f78dab5a865073"),
    ("[CH2+2]", "17fb7a67d34d5f0a469c86a3d9f277afeba715e9d1d9f8f158f78dab5a865073"),
    ("[O--]", "02834008fd898996afe269b8570fc182ffce8a4f843deca13a18a6d1aa6428fe"),
    ("[O-02]", "02834008fd898996afe269b8570fc182ffce8a4f843deca13a18a6d1aa6428fe"),
    ("C[OH]", "de11d7d16c69b08b132547e63c698b3c9b750f97e206a8257afa88c35e5dc3de"),
    ("[OH2]", "453227f5f33d38b6cb635cce2842549c9123b86bb0e9cff17da3f61f9bd009e3"),
    ("[OH02]", "453227f5f33d38b6cb635cce2842549c9123b86bb0e9cff17da3f61f9bd009e3"),
    ("c1cc[cH-]c1", "65d8f6c2e2aa7fbc3b674d25c0699f6e826a77dc7adfa2ecbb3c105f75adbd72"),
])
def test_parsed_molecule_json_bytes(smiles, digest):
    graph = parse_smiles(smiles, name="m")
    assert sha256(json.dumps(graph_to_json_dict(graph), sort_keys=True)) == digest


def test_bench_artifact_bytes(tiny_dataset_path, tmp_path):
    # report.json echoes the dataset path and out_dir; both are normalised
    out = tmp_path / "out"
    cfg = run_config_from_dict({
        "dataset": str(tiny_dataset_path), "task": "regression", "repeats": 2,
        "out_dir": str(out), "sglb": {"iterations": 20, "max_depth": 3, "ensemble_size": 2}})
    run_benchmark(cfg, ablation=True, plots=True)
    report = (out / "report.json").read_text(encoding="utf-8")
    texts = {"report.json": report.replace(str(out), "OUT").replace(str(tiny_dataset_path),
                                                                    "DATA")}
    for name in ("predictions.csv", "model.json", "uncertainty_band.svg"):
        texts[name] = (out / name).read_text(encoding="utf-8")
    assert {name: sha256(text) for name, text in texts.items()} == {
        "report.json": "d5c570c4f9daefaee89696a006d0cbf5b64e9228f7452cdcb544336ad8ba4a4a",
        "predictions.csv": "b7c2099987ad65d1ccf400e55d5d3518587742a6c68e3919d735ca8f0a422880",
        "model.json": "39b4ebb74a9a3b09e7a0b2cbe79633fb79bde74b0d1e82600abfe7200ae9b685",
        "uncertainty_band.svg": "81a9c7bf510e6fde148820c55eba4aa17c93d1447cf05519dc73ebc1df5c37aa",
    }
    assert set(json.loads((out / "timing.json").read_text())) == {
        "fingerprint_seconds", "train_wall_seconds", "train_seconds", "predict_seconds",
        "total_seconds"}
