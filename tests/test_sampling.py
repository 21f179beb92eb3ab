"""The samplers' draw stream: `sample_poly` steps the generator inline,
and must draw exactly what the plain `Rng.below` loop draws."""

import pytest

from f4quad.fields import KElem
from f4quad.polynomials import Poly2
from f4quad.sampling import Rng, sample_k, sample_k_general, sample_poly


def _reference_poly(rng: Rng, max_degree: int, max_terms: int = 4) -> Poly2:
    """The sampler as a loop over `Rng.below` and `Poly2.from_terms`."""
    nterms = rng.below(max_terms + 1)
    terms = []
    for _ in range(nterms):
        i = rng.below(max_degree + 1)
        j = rng.below(max_degree + 1 - i)
        terms.append((i, j))
    return Poly2.from_terms(terms)


def _reference_k(rng: Rng, max_degree: int) -> KElem:
    num = _reference_poly(rng, max_degree)
    if rng.chance(1, 2):
        return KElem(num)
    i = rng.below(2)
    j = rng.below(2 - i)
    return KElem(num, Poly2.monomial(i, j))


def _reference_k_general(rng: Rng, max_degree: int) -> KElem:
    num = _reference_poly(rng, max_degree)
    while True:
        den = _reference_poly(rng, max(1, max_degree - 1), 3)
        if not den.is_zero():
            return KElem(num, den)


def _same_stream(sampler, reference, seed, *args):
    rng, ref = Rng(seed), Rng(seed)
    for _ in range(3):
        assert sampler(rng, *args) == reference(ref, *args), (seed, args)
        assert rng.state == ref.state, (seed, args)


@pytest.mark.parametrize("max_degree", [0, 1, 2, 3, 5, 6, 8, 70])
def test_sample_poly_matches_below_loop(max_degree):
    # 70 passes the row width W = 64: a wider stride, shrunk at the end
    for seed in range(200):
        for max_terms in (0, 3, 4):
            _same_stream(sample_poly, _reference_poly, seed, max_degree,
                         max_terms)


@pytest.mark.parametrize("max_degree", [0, 1, 3, 6])
def test_k_samplers_match_below_loop(max_degree):
    for seed in range(200):
        _same_stream(sample_k, _reference_k, seed, max_degree)
        _same_stream(sample_k_general, _reference_k_general, seed, max_degree)

