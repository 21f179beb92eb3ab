"""Call counters and self times around the public functions of each layer.

`install()` wraps every function in `TARGETS` and rebinds the wrapper
wherever f4quad binds the original: module globals (``fields`` and
``quadrangle`` import ``poly_gcd``/``poly_divexact`` by name,
``quadrangle`` calls ``solve_linear_k`` as a global) and class
attributes (``KElem.__sub__`` is the same function as ``__add__``).
Patching only the defining module would read 0 calls without an error.

A wrapper records calls and duration.  Self time is duration minus the
time spent in wrapped children, kept with a stack of child totals.
Spans stay in memory; `Tracer.stats()` returns them at the end.
"""

from __future__ import annotations

import sys
import time
from types import FunctionType

# metric prefix -> (module, attribute path) of the wrapped function
TARGETS = {
    "polynomials.gcd": ("polynomials", "poly_gcd"),
    "polynomials.divexact": ("polynomials", "poly_divexact"),
    "polynomials.mul": ("polynomials", "Poly2.__mul__"),
    "fields.kelem_add": ("fields", "KElem.__add__"),
    "fields.kelem_mul": ("fields", "KElem.__mul__"),
    "fields.lmul": ("fields", "FieldInstance.lmul"),
    "fields.phi_l": ("fields", "FieldInstance.phi_l"),
    "fields.theta_l": ("fields", "FieldInstance.theta_l"),
    "fields.validate": ("fields", "FieldInstance.validate"),
    "parser.parse": ("parser", "parse_instance_file"),
    "rootgroups.mul": ("rootgroups", "UPlus.mul"),
    "rootgroups.comm13": ("rootgroups", "UPlus.comm13"),
    "rootgroups.comm14": ("rootgroups", "UPlus.comm14"),
    "rootgroups.comm24": ("rootgroups", "UPlus.comm24"),
    "quadrangle.act_point": ("quadrangle", "Quadrangle.act_point"),
    "quadrangle.incident": ("quadrangle", "Quadrangle.incident"),
    "quadrangle.collinear": ("quadrangle", "Quadrangle.collinear"),
    "quadrangle.project": ("quadrangle", "Quadrangle.project"),
    "quadrangle.solve_linear_k": ("quadrangle", "solve_linear_k"),
    "moufang.embed_derived": ("moufang", "MoufangSet.embed_derived"),
    "moufang.flag_of_label": ("moufang", "MoufangSet.flag_of_label"),
    "moufang.sphere_general": ("moufang", "MoufangSet.sphere_general"),
    "moufang.reconstruct_report": ("moufang", "reconstruct_report"),
}

# every sampler counts towards one layer total, "sampling"
SAMPLERS = ("sample_poly", "sample_poly_nonzero", "sample_k",
            "sample_k_general", "sample_k_nonzero", "sample_kprime",
            "sample_l", "sample_l_nonzero", "sample_lprime")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[float] = []
        # gcd input properties: trivial results, repeated inputs, degree
        self.gcd_trivial = 0
        self.gcd_max_degree = -1
        self._gcd_seen: set = set()
        self.gcd_repeats = 0

    def wrap(self, name: str, fn):
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        calls[name] = 0
        total_s[name] = self_s[name] = 0.0
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_gcd(self, name: str, fn):
        timed = self.wrap(name, fn)
        seen = self._gcd_seen

        def gcd(p, q):
            key = (p, q)
            if key in seen:
                self.gcd_repeats += 1
            else:
                seen.add(key)
            for x in (p, q):
                if x:
                    self.gcd_max_degree = max(self.gcd_max_degree,
                                              x.total_degree())
            g = timed(p, q)
            if g.is_one():
                self.gcd_trivial += 1
            return g

        gcd.__wrapped__ = fn
        return gcd

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s)}

    def stats(self) -> dict:
        out = self.snapshot()
        out["gcd"] = {"trivial": self.gcd_trivial, "repeats": self.gcd_repeats,
                      "max_degree": self.gcd_max_degree}
        return out


def _resolve(module: str, path: str):
    obj = sys.modules[f"f4quad.{module}"]
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


def _bindings(functions):
    """(scope, name, function) for every f4quad module global or class
    attribute that binds one of `functions`."""
    for modname, mod in list(sys.modules.items()):
        if modname != "f4quad" and not modname.startswith("f4quad."):
            continue
        scopes = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type)
                          and v.__module__.startswith("f4quad")]
        for scope in scopes:
            for key, val in list(vars(scope).items()):
                if isinstance(val, FunctionType) and val in functions:
                    yield scope, key, val


def leftover_bindings() -> list[str]:
    """Names in f4quad that still bind an unwrapped target (should be none)."""
    import f4quad.sampling as sampling
    wanted = [_resolve(m, p) for m, p in TARGETS.values()]
    wanted += [vars(sampling)[n] for n in SAMPLERS]
    originals = {getattr(f, "__wrapped__", f) for f in wanted}
    return [f"{scope.__name__}.{key}" for scope, key, _ in _bindings(originals)]


def install() -> Tracer:
    """Import the f4quad layers, wrap the targets, and return the tracer."""
    import f4quad.sampling as sampling  # the package loads every layer

    tracer = Tracer()
    originals = {}
    for name, (module, path) in TARGETS.items():
        fn = _resolve(module, path)
        wrap = tracer.wrap_gcd if name == "polynomials.gcd" else tracer.wrap
        originals[fn] = wrap(name, fn)
    for fname in SAMPLERS:
        fn = vars(sampling)[fname]
        originals[fn] = tracer.wrap(f"sampling.{fname}", fn)
    for scope, key, fn in list(_bindings(originals)):
        setattr(scope, key, originals[fn])
    return tracer


def calibration_unit() -> int:
    """A fixed slice of pure-Python work, about 20-35 us: integer and
    small-dict operations like those of the polynomial layer.  Its time
    tells how fast the host runs Python at that moment."""
    acc, rows, x = 0, {}, 12345
    for i in range(60):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc ^= x << (i & 7)
        rows[i & 15] = rows.get(i & 15, 0) ^ acc
    return len(rows)


def unit_time(n: int = 3) -> float:
    """Least seconds of `n` calibration units in a row."""
    best = float("inf")
    for _ in range(n):
        t = time.perf_counter()
        calibration_unit()
        best = min(best, time.perf_counter() - t)
    return best


def install_marks(every: int) -> list[tuple[float, float]]:
    """Count calls of `poly_gcd`; at every `every`-th call, time one
    `calibration_unit` and append (clock before it, its seconds) to the
    returned list.  Verdicts of one program seed make the same calls in
    the same order, so mark i cuts each of them at the same point of the
    work.  The counter and the units cost about 1-3% of a verdict."""
    import f4quad.polynomials as polynomials

    marks: list[tuple[float, float]] = []
    clock = time.perf_counter
    fn = polynomials.poly_gcd
    count = 0

    def gcd(p, q):
        nonlocal count
        count += 1
        if count == every:
            count = 0
            t = clock()
            calibration_unit()
            marks.append((t, clock() - t))
        return fn(p, q)

    gcd.__wrapped__ = fn
    for scope, key, _ in list(_bindings({fn})):
        setattr(scope, key, gcd)
    return marks
