"""Span tracing of polyacert's public functions, from outside the package.

``Tracer`` replaces each traced function by a wrapper in every polyacert
module that holds a reference to it (``curve.sqrt_bounds``,
``certify.sqrt_bounds``, ``lattice.pi_bounds``, the package re-exports,
...), so calls between modules are seen as well as calls from the
benchmark.  Each call becomes a span with a parent link, kept in flat
arrays in memory and written out when the run ends; ``uninstall`` puts
every original binding back.

``layer_metrics`` turns the spans into the per-layer numbers: call
counts, self time (duration minus the child spans), and ratios measured
where the work happens, such as ``pi_bounds`` children per
``certified_floor_term`` call (brackets per floor term).
"""
from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Public functions on the certified paths, by layer, in call order.
TARGETS = {
    "rational": ("simplest_in",),
    "verified": ("sqrt_bounds", "arccos_bounds", "pi_bounds"),
    "curve": ("g_lower",),
    "lattice": (
        "certified_floor_term",
        "count_weighted",
        "count_neumann2_certified_lower",
        "count_dirichlet_dim_reduction",
        "sector_lattice_bound",
    ),
    "certify": ("certify", "verify_certificate"),
    "cli": ("main",),
}

OP_SPAN = "bench.op"
COUNT_FUNCTIONS = TARGETS["lattice"][1:]


def _extra_arccos(args, result):
    return int(result.hi.denominator).bit_length()


def _extra_certify(args, result):
    return len(result.steps)


def _extra_verify(args, result):
    return len(args[0].steps)


# Values read off a call's arguments or result, kept per span.
_EXTRAS = {
    "verified.arccos_bounds": _extra_arccos,
    "certify.certify": _extra_certify,
    "certify.verify_certificate": _extra_verify,
}


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self._name_ids = {OP_SPAN: 0}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.extra: dict[int, int] = {}
        self.raised: dict[int, str] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        sid = len(self.name_of)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self):
        """The root span of one benchmark operation."""
        sid = self._open(0)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        extra = _EXTRAS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[sid] = type(exc).__name__
                raise
            finally:
                tracer._close(sid)
            if extra is not None:
                tracer.extra[sid] = extra(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding in the loaded polyacert modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "polyacert" or n.startswith("polyacert."))]
        for layer, names in TARGETS.items():
            home = sys.modules[f"polyacert.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @property
    def span_count(self) -> int:
        return len(self.name_of)

    def write(self, path) -> None:
        """All spans as gzip CSV: id, parent, name, start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,parent,name,start_s,end_s,extra,raised\n")
            for sid in range(self.span_count):
                out.write(
                    f"{sid},{self.parent[sid]},{self.names[self.name_of[sid]]},"
                    f"{self.start[sid]:.9f},{self.end[sid]:.9f},"
                    f"{self.extra.get(sid, '')},{self.raised.get(sid, '')}\n"
                )


def _aggregate(tracer: Tracer):
    """Per-name calls, inclusive and self seconds, extras and exceptions;
    per (parent, child) name counts; the spans that called ``simplest_in``."""
    n = tracer.span_count
    child_time = [0.0] * n
    for sid in range(n):
        p = tracer.parent[sid]
        if p >= 0:
            child_time[p] += tracer.end[sid] - tracer.start[sid]
    calls, total, self_time, extra_sum, raised = Counter(), Counter(), Counter(), Counter(), Counter()
    children = Counter()
    attempted = set()
    for sid in range(n):
        name = tracer.names[tracer.name_of[sid]]
        duration = tracer.end[sid] - tracer.start[sid]
        calls[name] += 1
        total[name] += duration
        self_time[name] += duration - child_time[sid]
        if sid in tracer.extra:
            extra_sum[name] += tracer.extra[sid]
        if sid in tracer.raised:
            raised[(name, tracer.raised[sid])] += 1
        p = tracer.parent[sid]
        if p >= 0:
            children[(tracer.names[tracer.name_of[p]], name)] += 1
            if name == "rational.simplest_in":
                attempted.add(p)
    return calls, total, self_time, extra_sum, raised, children, attempted


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics by name; ``run.PER_LAYER`` gives their units."""
    calls, total, self_time, extra_sum, raised, children, attempted = _aggregate(tracer)
    m: dict[str, float] = {}

    def per_call(name, seconds, scale):
        return _ratio(seconds[name] * scale, calls[name])

    arccos, sqrt_, pi, simplest = (
        "verified.arccos_bounds", "verified.sqrt_bounds", "verified.pi_bounds", "rational.simplest_in"
    )
    # every bracket attempt asks simplest_in for its two endpoints
    arccos_attempts = children[(arccos, simplest)] / 2
    sqrt_attempts = children[(sqrt_, simplest)] / 2
    m[f"{arccos}.calls"] = calls[arccos]
    m[f"{arccos}.self_us_per_call"] = per_call(arccos, self_time, 1e6)
    m[f"{arccos}.attempts_per_call"] = _ratio(arccos_attempts, calls[arccos])
    m[f"{arccos}.hi_denom_bits_mean"] = _ratio(extra_sum[arccos], calls[arccos])
    m[f"{sqrt_}.calls"] = calls[sqrt_]
    m[f"{sqrt_}.self_us_per_call"] = per_call(sqrt_, self_time, 1e6)
    m[f"{sqrt_}.attempts_per_call"] = _ratio(sqrt_attempts, calls[sqrt_])
    m[f"{pi}.calls"] = calls[pi]
    m[f"{pi}.self_us_per_call"] = per_call(pi, self_time, 1e6)
    # every attempt but the one that returned a bracket is a failed guess
    succeeded = sum(
        1 for sid in attempted
        if tracer.names[tracer.name_of[sid]] in (arccos, sqrt_) and sid not in tracer.raised
    )
    m["verified.guess_failed"] = arccos_attempts + sqrt_attempts - succeeded
    m[f"{simplest}.calls"] = calls[simplest]
    m[f"{simplest}.us_per_call"] = per_call(simplest, total, 1e6)

    g_lower = "curve.g_lower"
    m[f"{g_lower}.calls"] = calls[g_lower]
    m[f"{g_lower}.self_us_per_call"] = per_call(g_lower, self_time, 1e6)

    floor = "lattice.certified_floor_term"
    m[f"{floor}.calls"] = calls[floor]
    m[f"{floor}.self_us_per_call"] = per_call(floor, self_time, 1e6)
    m[f"{floor}.brackets_per_call"] = _ratio(children[(floor, pi)], calls[floor])
    m[f"{floor}.unresolved"] = raised[(floor, "UnresolvedFloorError")]
    for fn in COUNT_FUNCTIONS:
        name = f"lattice.{fn}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.ms_per_call"] = per_call(name, total, 1e3)
    m["lattice.terms"] = calls[floor] + calls[g_lower]

    cert, verify = "certify.certify", "certify.verify_certificate"
    m[f"{cert}.steps_per_call"] = _ratio(extra_sum[cert], calls[cert])
    m[f"{cert}.delta_attempts_per_step"] = _ratio(children[(cert, sqrt_)], extra_sum[cert])
    m[f"{cert}.self_ms_per_call"] = per_call(cert, self_time, 1e3)
    lower = "lattice.count_neumann2_certified_lower"
    m[f"{verify}.fresh_counts_per_step"] = _ratio(children[(verify, lower)], extra_sum[verify])
    m[f"{verify}.self_ms_per_call"] = per_call(verify, self_time, 1e3)
    m["cli.main.self_ms_per_call"] = per_call("cli.main", self_time, 1e3)
    m["trace.spans"] = tracer.span_count
    return m
