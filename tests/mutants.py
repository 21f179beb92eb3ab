"""Named mutants of the library: each row breaks one function on purpose.

`MUTANTS[name](monkeypatch)` replaces one library function through
pytest's monkeypatch, so the patch ends with the test that applied it.
`test_mutants.py` runs the suites under each row and records which
checks notice: every suite, or the suites `ROW_SUITES` names for the
row.  Other tests apply a row, or call `eq3_slot_2_mul` directly, to
show that a known wrong reading fails.

A probe mutant makes the draws of the function it replaces before it
answers wrongly: `FieldInstance.validate` feeds both form probes from
one shared Rng(seed), so a mutant that drew less would move the later
probe's samples as well.
"""

from functools import partial

from f4quad import fields, verifier
from f4quad.fields import FieldInstance, LElem, kscale, phi_k, theta_k
from f4quad.moufang import MoufangSet
from f4quad.quadrangle import Quadrangle
from f4quad.rootgroups import R1Coord, R2Coord, UPlus, UPlusElem

MUTANTS = {}
ROW_SUITES = {}  # row name -> the suites it runs, where not every suite


def _mutant(name, suites=None):
    def register(patch):
        MUTANTS[name] = patch
        if suites:
            ROW_SUITES[name] = suites
        return patch
    return register


# the field tower, one transcribed slot each; the fields suite sees them

@_mutant("lnorm-drops-delta", suites=("fields",))
def _(mp):  # c0^2 + c0 c1, without delta c1^2
    mp.setattr(FieldInstance, "lnorm", lambda self, z: z.c0 * (z.c0 + z.c1))


@_mutant("conj-identity", suites=("fields",))
def _(mp):
    mp.setattr(LElem, "conj", lambda self: self)


@_mutant("kprime-member-accepts-all", suites=("fields",))
def _(mp):
    for module in (fields, verifier):
        mp.setattr(module, "kprime_member", lambda f: True)


@_mutant("phi-l-drops-phie-c0", suites=("fields",))
def _(mp):
    def phi_l(self, z):  # phi(c0) + phi(c1) c1' e, without phi(c1) c0'
        return LElem(phi_k(z.c0), phi_k(z.c1) * self.phi_e.c1)
    mp.setattr(FieldInstance, "phi_l", phi_l)


def eq3_slot_2_mul(self, g, h):
    """`UPlus.mul` with the [U2,U4] correction put into U2's K' slot, the
    reading of relation (3) that the paper rules out.  No consistent
    collection exists for it, so this is a one-level truncation, and
    associativity fails."""
    p2, p3 = self.comm14(h.g1, g.g4)
    c24 = self.comm24(h.g2, g.g4)
    c2 = (g.g2 + self.comm13(h.g1, g.g3) + p2 + h.g2
          + R2Coord(c24.x, c24.y, c24.b))
    return UPlusElem(g.g1 + h.g1, c2, g.g3 + p3 + h.g3, g.g4 + h.g4)


@_mutant("eq3-slot-2")
def _(mp):
    mp.setattr(UPlus, "mul", eq3_slot_2_mul)


@_mutant("comm24-zero")
def _(mp):
    mp.setattr(UPlus, "comm24", lambda self, p, q: self.r1_zero)


@_mutant("comm13-zero")
def _(mp):
    mp.setattr(UPlus, "comm13", lambda self, p, q: self.r2_zero)


@_mutant("rho-r1-squares-b")
def _(mp):
    def rho_r1(self, c):  # b^2 in place of phi(b)
        inst = self.inst
        return R2Coord(kscale(inst.beta, inst.theta_l(c.x)),
                       kscale(inst.beta, inst.theta_l(c.y)), c.b.square())
    mp.setattr(Quadrangle, "rho_r1", rho_r1)


@_mutant("rho-r2-drops-alpha-inv")
def _(mp):
    def rho_r2(self, c):
        inst = self.inst
        return R1Coord(inst.phi_l(c.u), inst.phi_l(c.v), theta_k(c.a))
    mp.setattr(Quadrangle, "rho_r2", rho_r2)


@_mutant("tau-prime-identity")
def _(mp):
    mp.setattr(MoufangSet, "tau_prime", lambda self, p: p)


def _membership(mp, method, verdict):
    """Every block that `MoufangSet.<method>` builds answers `verdict`."""
    build = getattr(MoufangSet, method)

    def patched(self, *args):
        blk = build(self, *args)
        blk.contains = lambda p: verdict
        return blk
    mp.setattr(MoufangSet, method, patched)


MUTANTS.update({
    name: partial(_membership, method=method, verdict=verdict)
    for name, method, verdict in (
        ("special-first-accepts-all", "special_circle_first", True),
        ("special-second-accepts-all", "special_circle_second", True),
        ("special-second-rejects-all", "special_circle_second", False),
        ("circle-at-infinity-accepts-all", "circle_at_infinity", True),
        ("sphere-at-infinity-accepts-all", "sphere_at_infinity", True),
        ("circle-general-accepts-all", "circle_general", True),
        ("sphere-general-accepts-all", "sphere_general", True))})


@_mutant("form1-never-zero")
def _(mp):
    probe = FieldInstance.zero_of_form1

    def zero_of_form1(self, rng, max_degree):
        probe(self, rng, max_degree)  # the same draws, never a zero
        return None
    mp.setattr(FieldInstance, "zero_of_form1", zero_of_form1)
