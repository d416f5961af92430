"""Exact verifier for a flag-algebra certificate bounding alternating-cycle density.

The library classifies the red/blue colourings of the 3+3 bipartite template,
counts coloured homomorphisms in exact rational arithmetic, expands rooted
flag products over the 26 template classes, checks the shipped positive
semidefinite certificate, and confirms every identity by brute force on
small concrete hosts.
"""

from .graphs import (
    ClassTable,
    Color,
    ColoredGraph,
    Flag,
    alternating_cycle,
    canonical_form,
    classify,
    complete_bipartite,
    complete_graph,
    enumerate_template_colorings,
    underlying_automorphisms,
)
from .counting import (
    alternating_hom_inj_count,
    density_vector,
    falling_factorial,
    hom_inj_count,
    rooted_hom_inj_count,
    t_bip,
    t_inj,
)
from .certificate import (
    Certificate,
    FlagFamily,
    PsdReport,
    SchemaError,
    SymMatrix,
    VerificationReport,
    builtin_certificate,
    certificate_coefficients,
    expand_in_classes,
    flag_product,
    load_certificate,
    psd_check,
    save_certificate,
    verify_certificate,
)

__all__ = [
    "Certificate",
    "ClassTable",
    "Color",
    "ColoredGraph",
    "Flag",
    "FlagFamily",
    "PsdReport",
    "SchemaError",
    "SymMatrix",
    "VerificationReport",
    "alternating_cycle",
    "alternating_hom_inj_count",
    "builtin_certificate",
    "canonical_form",
    "certificate_coefficients",
    "classify",
    "complete_bipartite",
    "complete_graph",
    "density_vector",
    "enumerate_template_colorings",
    "expand_in_classes",
    "falling_factorial",
    "flag_product",
    "hom_inj_count",
    "load_certificate",
    "psd_check",
    "rooted_hom_inj_count",
    "save_certificate",
    "t_bip",
    "t_inj",
    "underlying_automorphisms",
    "verify_certificate",
]
