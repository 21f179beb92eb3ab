"""Seeded, deterministic samplers for field and group elements.

A tiny xorshift generator keeps the byte-for-byte reproducibility
contract independent of the standard library's evolution.  Samplers are
degree- and sparsity-bounded; denominators default to monomials, which
keeps canonicalisation cheap along the deep group-theoretic pipelines
while still exercising genuine quotients.

`sample_poly`, which every sampler draws through, runs the generator
step inline on a local state and sets each term's bit of the packed
`Poly2` directly; `sample_k` draws its denominator the same way and
builds the reduced fraction without `KElem.__init__`.
`tests/test_sampling.py` pins both samplers' draws and the final state
against a loop over `Rng.below`, that is over `Rng.next64`.
"""

from __future__ import annotations

from .fields import K_ZERO, FieldInstance, KElem, LElem, _trusted_k, phi_k
from .polynomials import Poly2, _shrink, _stride


_MASK64 = 0xFFFFFFFFFFFFFFFF
_MULT = 0x2545F4914F6CDD1D  # the xorshift64* output multiplier


class Rng:
    """xorshift64* with a splitmix-style seeding; stable across versions."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        z = (seed + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        self.state = (z ^ (z >> 31)) or 0x2545F4914F6CDD1D

    def next64(self) -> int:
        x = self.state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self.state = x
        return (x * _MULT) & _MASK64

    def below(self, n: int) -> int:
        return self.next64() % n

    def chance(self, num: int, den: int) -> bool:
        return self.below(den) < num


def sample_poly(rng: Rng, max_degree: int, max_terms: int = 4) -> Poly2:
    """Sparse random polynomial of bounded total degree: a number of
    terms below max_terms + 1, then each term's s- and t-exponent, each
    draw `rng.below` (terms that coincide cancel).  The generator step
    runs inline on a local state; the draws are those of `Rng.next64`."""
    n = max_degree + 1
    w = _stride(n)  # W unless an exponent of s passes a row
    x = rng.state
    x ^= x >> 12
    x ^= (x << 25) & _MASK64
    x ^= x >> 27
    nterms = ((x * _MULT) & _MASK64) % (max_terms + 1)
    v = 0
    for _ in range(nterms):
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        i = ((x * _MULT) & _MASK64) % n
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        v ^= 1 << w * (((x * _MULT) & _MASK64) % (n - i)) + i
    rng.state = x
    return _shrink(v, w)


def sample_poly_nonzero(rng: Rng, max_degree: int, max_terms: int = 4) -> Poly2:
    while True:
        p = sample_poly(rng, max_degree, max_terms)
        if not p.is_zero():
            return p


def sample_k(rng: Rng, max_degree: int) -> KElem:
    """Random K element over the denominator 1, or else s^i t^j with
    i + j <= 1: after the numerator, the draws of `rng.chance(1, 2)`,
    then `rng.below(2)` and `rng.below(2 - i)`, stepped inline.  A
    monomial cancel reduces the fraction (no gcd)."""
    num = sample_poly(rng, max_degree)
    x = rng.state
    x ^= x >> 12
    x ^= (x << 25) & _MASK64
    x ^= x >> 27
    i = j = 0
    if (x * _MULT) & 1:  # not chance(1, 2): draw the denominator
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        i = (x * _MULT) & 1
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        j = ((x * _MULT) & _MASK64) % (2 - i)
    rng.state = x
    if num.is_zero():
        return K_ZERO
    return _trusted_k(*num.cancel_monomial(i, j))


def sample_k_general(rng: Rng, max_degree: int) -> KElem:
    """Random K element with a genuine polynomial denominator."""
    num = sample_poly(rng, max_degree)
    den = sample_poly_nonzero(rng, max(1, max_degree - 1), max_terms=3)
    return KElem(num, den)


def sample_k_nonzero(rng: Rng, max_degree: int) -> KElem:
    while True:
        f = sample_k(rng, max_degree)
        if not f.is_zero():
            return f


def sample_kprime(rng: Rng, max_degree: int) -> KElem:
    return phi_k(sample_k(rng, max_degree))


def sample_l(rng: Rng, max_degree: int) -> LElem:
    return LElem(sample_k(rng, max_degree), sample_k(rng, max_degree))


def sample_l_nonzero(rng: Rng, max_degree: int) -> LElem:
    while True:
        z = sample_l(rng, max_degree)
        if not z.is_zero():
            return z


def sample_lprime(inst: FieldInstance, rng: Rng, max_degree: int) -> LElem:
    return inst.phi_l(sample_l(rng, max_degree))
