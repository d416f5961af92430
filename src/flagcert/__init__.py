"""Exact verifier for a flag-algebra certificate bounding alternating-cycle density.

The library classifies the red/blue colourings of the 3+3 bipartite template,
counts coloured homomorphisms in exact rational arithmetic, expands rooted
flag products over the 26 template classes, checks the shipped positive
semidefinite certificate, and confirms every identity by brute force on
small concrete hosts.
"""

from importlib import import_module

# Public name -> submodule that defines it.  A name loads its submodule on first
# use (PEP 562), so a command that never counts never imports numpy.
_EXPORTS = {
    "ClassTable": "graphs",
    "Color": "graphs",
    "ColoredGraph": "graphs",
    "Flag": "graphs",
    "alternating_cycle": "graphs",
    "canonical_form": "graphs",
    "classify": "graphs",
    "complete_bipartite": "graphs",
    "enumerate_template_colorings": "graphs",
    "underlying_automorphisms": "graphs",
    "alternating_hom_inj_count": "counting",
    "density_vector": "counting",
    "falling_factorial": "counting",
    "hom_inj_count": "counting",
    "rooted_hom_inj_count": "counting",
    "t_bip": "counting",
    "t_inj": "counting",
    "Certificate": "certificate",
    "FlagFamily": "certificate",
    "PsdReport": "certificate",
    "SchemaError": "certificate",
    "SymMatrix": "certificate",
    "VerificationReport": "certificate",
    "builtin_certificate": "certificate",
    "certificate_coefficients": "certificate",
    "expand_in_classes": "certificate",
    "flag_product": "certificate",
    "load_certificate": "certificate",
    "psd_check": "certificate",
    "save_certificate": "certificate",
    "verify_certificate": "certificate",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
