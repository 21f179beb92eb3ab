"""The verifier's checks: how many samples each draws, and what it returns."""

import hashlib

import pytest

from f4quad import verifier
from f4quad.sampling import Rng

SAMPLES = (60, 20, 7, 3)

# At seed 0 and each `samples` above, every check with a tag passes on a
# fresh Rng(tag); this is the stream's state after it.  A check that
# draws one sample more or fewer leaves a different state even when its
# verdict holds.  Samples 3 makes the n // 4 and n // 5 counts zero, and
# samples 60 lifts the max(3, n // 10), max(2, n // 10) and
# max(2, n // 20) counts above their floors.
STATES = {
    "canonical-forms": (
        3414633274077694472, 18211130640316685460,
        16805445834674317035, 4583172030548692396),
    "field-axioms": (
        4849298833834778860, 13675120124116418517,
        11168242927875522914, 5428833882954548412),
    "twist-homomorphism": (
        1942835542600579714, 12791250707640793421,
        11418299974626011396, 13223687761825716845),
    "twist-squared-is-frobenius": (
        12660015202775453322, 6630679222602090359,
        8512838220674452797, 2075671783317739394),
    "theta-roundtrips": (
        154570580959063303, 7629309438396417374,
        1042505370152779238, 18211401906766580685),
    "kprime-decompose": (
        7627836979584479271, 13361292590950691356,
        10070362215493439180, 1476718810575267679),
    "conjugation-and-norm": (
        17205381622146727505, 3773536844533476351,
        12379131403518773105, 502642192066559332),
    "tower-inclusions": (
        17366043512254650419, 3626666339645723541,
        7083557815189287865, 1748603598130715330),
    "anisotropy-probe": (
        1974634233006009466, 8076996093962644841,
        2902550993574984938, 13267559787030755290),
    "identity-and-inverses": (
        7239153196494853461, 8644865128723306644,
        15897414604827120370, 5947002907483036996),
    "associativity": (
        4885092915823122407, 9583292389720538233,
        10900041993077620976, 18246442425140997326),
    "commutator-biadditivity": (
        17464681147827092478, 16670843832662770468,
        1039331699878325544, 15549986344203650590),
    "commutator-expansion": (
        11471706857299103623, 11880980799860640254,
        17100356762703413402, 14180207640020093695),
    "nilpotency-class-3": (
        17252416224416258155, 3686491142900112360,
        954386073956542343, 7685909621375755838),
    "suzuki-tits-subgroup": (
        2440224920167713224, 2750191601314468130,
        17536068666667587544, 4698358309989392474),
    "base-incidences": (
        7553686729992720718, 7553686729992720718,
        7553686729992720718, 7553686729992720718),
    "quadrangle-axioms": (
        2042515018909412088, 9034121470278095120,
        9034121470278095120, 9034121470278095120),
    "action-laws": (
        3299868567550821427, 1745626757940629672,
        8213806300234552788, 1234184003990712370),
    "projection-closed-forms": (
        15726509425613860950, 14215297017130122830,
        18036874645412301669, 13564971763896621636),
    "polarity-involution": (
        16447873800693741832, 3624156662800204516,
        9198288165454190340, 3900778703475868044),
    "polarity-group-twist": (
        8107536220836496529, 2930301231659302436,
        304168109272577102, 489215147674969543),
    "absolute-flags": (
        16214724071301485706, 5664035725702084761,
        2484098058284521412, 18249582472086402232),
    "flag-labeling": (
        15249745968081201922, 1784887273369762236,
        11251080906689301034, 10247828139470103684),
    "generator-closure-derived": (
        17666752198354204870, 15391165420551758514,
        16591889790202385823, 10404247812284620828),
    "generator-verbatim-adjudication": (
        13949179631914767900, 14777336923832170192,
        1600796059509464558, 12629033989687467664),
    "regular-translation": (
        5494060258196116329, 15039631334740264672,
        9076505348724006087, 14103010035660836314),
    "derived-subgroup-shapes": (
        16674626928689904030, 6541260117091614576,
        7535426095331449885, 10902710238276814474),
    "block-transport": (
        5014696006753990262, 8342978223946312060,
        8342978223946312060, 8342978223946312060),
    "suzuki-tits-sub-moufang-set": (
        8209011346981493784, 3891218780978812996,
        17480396508073110107, 13509472508297990000),
    "two-spheres-bound": (
        2393660750203357400, 17375944715988856612,
        17375944715988856612, 17375944715988856612),
    "sphere-tables": (
        10047677001383752375, 13376594997944213024,
        13376594997944213024, 13376594997944213024),
    "sphere-translates": (
        4209726342954019661, 10398096182272817232,
        10398096182272817232, 10398096182272817232),
    "circle-with-finite-gnarl": (
        5208065329779444538, 12985183515964011956,
        12985183515964011956, 12985183515964011956),
    "explicit-circles": (
        9883251661498703367, 9883251661498703367,
        9883251661498703367, 9883251661498703367),
    "polarity-twisted-translation": (
        5101719205183792742, 1236134071712987261,
        12230431703877368618, 7029017304812113956),
    "net-axioms": (
        2193753920737465316, 17670878701632135964,
        17670878701632135964, 17670878701632135964),
    "quadrangle-reconstruction": (
        5012530895565507427, 5012530895565507427,
        5012530895565507427, 5012530895565507427),
}

# The checks that pass with a note: the first 16 hex digits of the
# note's sha256.  Every other check's note is None.
NOTES = {
    "generator-verbatim-adjudication": (
        "ad7f366da21b7b79", "ad7f366da21b7b79",
        "ad7f366da21b7b79", "ad7f366da21b7b79"),
    "polarity-twisted-translation": (
        "40559ba0293f4062", "9eaea3449b7a5102",
        "0cf269cf1b334f50", "b9b36386b397b8a8"),
}


@pytest.mark.parametrize("samples", SAMPLES)
def test_each_check_draws_its_recorded_stream(samples):
    ctx = verifier.RunContext(verifier.SuiteConfig(seed=0, samples=samples))
    col = SAMPLES.index(samples)
    got = {}
    for suite in verifier.SUITES:
        for name, _, tag, fn in verifier.REGISTRY[suite]:
            if tag is None:
                continue
            rng = Rng(tag)
            ok, note = fn(ctx, rng)
            got[name] = (ok, note and hashlib.sha256(
                note.encode()).hexdigest()[:16], rng.state)
    assert got == {name: (True, NOTES.get(name, [None] * 4)[col], states[col])
                   for name, states in STATES.items()}


def _planted(notes):
    """A trial whose k-th call (from 1) returns notes.get(k), and the
    list of the streams it was called with."""
    calls = []

    def trial(ctx, rng):
        calls.append(rng)
        return notes.get(len(calls))
    return trial, calls


@pytest.mark.parametrize("count, want", [
    (lambda n: n, 7), (lambda n: n // 2, 3), (lambda n: max(2, n // 10), 2),
    (lambda n: 5 * n, 35)])
def test_sampled_runs_every_trial_of_a_pass(count, want):
    ctx = verifier.RunContext(verifier.SuiteConfig(samples=7))
    rng = Rng(1)
    trial, calls = _planted({})
    assert verifier._sampled(count)(trial)(ctx, rng) == (True, None)
    assert calls == [rng] * want


def test_sampled_stops_at_the_first_note():
    ctx = verifier.RunContext(verifier.SuiteConfig(samples=7))
    trial, calls = _planted({3: "third", 4: "fourth"})
    assert verifier._sampled(lambda n: n)(trial)(ctx, Rng(1)) == (
        False, "third")
    assert len(calls) == 3
    # a count of 0 never calls the trial, so its note cannot show
    trial, calls = _planted({1: "first"})
    assert verifier._sampled(lambda n: n // 10)(trial)(ctx, Rng(1)) == (
        True, None)
    assert calls == []
