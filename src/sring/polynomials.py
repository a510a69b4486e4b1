"""Bounded-degree polynomials over a finite ring.

Coefficients are ring element indices, lowest degree first, with trailing
zeros stripped; the zero polynomial has an empty coefficient tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import FiniteRing


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if k < len(self.coeffs) else 0


def poly(coeffs) -> Polynomial:
    """Build a normalized polynomial from a coefficient sequence."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return Polynomial(tuple(cs))


def poly_add(ring: FiniteRing, f: Polynomial, g: Polynomial) -> Polynomial:
    n = max(len(f.coeffs), len(g.coeffs))
    return poly(ring.add(f.coefficient(k), g.coefficient(k)) for k in range(n))


def poly_multiply(ring: FiniteRing, f: Polynomial, g: Polynomial) -> Polynomial:
    """Convolution product; factor order is preserved for noncommutative carriers."""
    if f.is_zero or g.is_zero:
        return poly(())
    out = [ring.zero] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        if a == ring.zero:
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] = ring.add(out[i + j], ring.mul(a, b))
    return poly(out)
