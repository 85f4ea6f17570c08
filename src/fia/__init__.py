"""Exact incidence-algebra toolkit for finite posets.

Builds the algebra of interval functions over Q or a prime field,
studies its derivations (Leibniz maps, inner maps, diagonal maps from
additive-on-chains data) and checks, by exhaustive or sampled probing,
that maps which look like derivations pointwise really are derivations.

The public names are resolved on first use (PEP 562), so importing the
package loads none of its modules and a process pays only for the
modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOMES = {
    **dict.fromkeys(
        (
            "AlgebraError",
            "CapExceededError",
            "FiElement",
            "convolve",
            "delta",
            "element",
            "element_from_json",
            "moebius",
            "restrict",
            "sandwich",
            "subset_idempotent",
            "unit",
            "zero",
            "zeta",
        ),
        "fialg",
    ),
    **dict.fromkeys(
        (
            "Decomposition",
            "LinearEndo",
            "coboundary",
            "decompose",
            "derivation_basis",
            "derivation_dimension",
            "endo_from_json",
            "h1_dimension",
            "idempotent_identity_check",
            "inner",
            "inner_basis",
            "inner_dimension",
            "is_cocycle",
            "is_derivation",
            "sigma_endo",
        ),
        "deriv",
    ),
    **dict.fromkeys(
        (
            "LemmaReport",
            "LocalCheckReport",
            "TheoremReport",
            "check_local_exhaustive",
            "check_local_spanning",
            "lemma_conformance",
            "local_dimension",
            "theorem_verify_enumerate",
            "theorem_verify_random",
            "witness_for",
        ),
        "locder",
    ),
    **dict.fromkeys(
        ("Poset", "PosetError", "PosetParseError", "parse_poset", "random_poset"),
        "poset",
    ),
    **dict.fromkeys(
        ("GF", "QQ", "CoeffRing", "RingError", "parse_ring"),
        "scalars",
    ),
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})
