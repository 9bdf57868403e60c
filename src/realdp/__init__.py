"""Exact-arithmetic toolkit for real del Pezzo surfaces and minimal conic
bundles: Picard-lattice arithmetic, divisor classification, conic-bundle
discriminants and the intersection-number identities of a conic-bundle
surface in closed form, and desk-scale hyperbolicity certificates via Sturm
counts and PL linking numbers."""

from . import catalog, conic, intlinalg, lattice, realroots, search, topology
