"""Bundled element data: atomic masses and the valence model.

Masses are standard atomic weights rounded to 4 significant figures; one
value per element, no isotopes.
"""

from .errors import UnsupportedElementError

SUPPORTED_ELEMENTS = ("H", "B", "C", "N", "O", "F", "P", "S", "Cl", "Br", "I")

ATOMIC_MASS = {
    "H": 1.008,
    "B": 10.81,
    "C": 12.01,
    "N": 14.01,
    "O": 16.00,
    "F": 19.00,
    "P": 30.97,
    "S": 32.06,
    "Cl": 35.45,
    "Br": 79.90,
    "I": 126.9,
}

# Allowed total valences (bond orders + hydrogens) for neutral atoms.
VALENCES = {
    "H": (1,),
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "F": (1,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

# Organic-subset atoms may be written without brackets and get implicit
# hydrogens up to the lowest achievable valence.
ORGANIC_SUBSET = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")

AROMATIC_SYMBOLS = ("c", "n", "o", "s")


def allowed_valences(element: str, formal_charge: int = 0) -> tuple[int, ...]:
    """Valences an atom may carry, adjusted for its formal charge.

    Electronegative-side elements (N, P, O, S, halogens, H) gain a bonding
    slot per positive charge and lose one per negative charge; carbon loses
    a slot per unit of charge either way (carbocation/carbanion), boron
    gains one per negative charge (borate).
    """
    base = VALENCES.get(element)
    if base is None:
        raise UnsupportedElementError(f"unsupported element {element!r}")
    if formal_charge == 0:
        return base
    if element == "C":
        shift = -abs(formal_charge)
    elif element == "B":
        shift = -formal_charge
    else:
        shift = formal_charge
    adjusted = tuple(sorted({max(0, v + shift) for v in base}))
    return adjusted
