"""Exact computations with preprojective algebras of type A-tilde_n:
finite automorphism groups, smash products, the Auslander-map decision
procedure via pertinency, and invariant rings."""

__version__ = "0.1.0"
