"""Topological molecular fingerprints with uncertainty-aware boosted trees.

Pipeline: parse molecules (SMILES subset or JSON graphs), build sublevel
vertex sequences for atomic mass / partial charge / bond type / chirality,
compute Vietoris-Rips persistence over graph geodesic distances per level,
flatten the Betti curves into a fixed-layout integer fingerprint, and train
noisy-gradient boosted-tree ensembles that decompose predictive uncertainty
into knowledge (epistemic) and data (aleatoric) parts.
"""

__version__ = "0.1.0"
