"""Exact verifier for a flag-algebra certificate bounding alternating-cycle density.

The library classifies the red/blue colourings of the 3+3 bipartite template,
counts coloured homomorphisms in exact rational arithmetic, expands rooted
flag products over the 26 template classes, checks the shipped positive
semidefinite certificate, and confirms every identity by brute force on
small concrete hosts.

Each public name is imported from the module that defines it, such as
``flagcert.certificate``; importing the package alone loads no module.
"""
