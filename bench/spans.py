"""Span tracing of hankelmp from outside the package.

``Tracer.install`` replaces public functions under the names their consumer
modules bind (``hankelmp.cli.classify``, ``hankelmp.recovery.sturm_isolate``,
...) with timing wrappers, and ``uninstall`` puts the originals back.  A span
records its name, start, end, parent span and request; spans stay in memory
until the run ends.  A target that no longer exists is skipped.
"""
from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _det_bits(tracer: "Tracer", dets) -> None:
    tracer.maxes["hankel.det_bits_max"] = max(
        tracer.maxes["hankel.det_bits_max"], max((_bits(d) for d in dets), default=0)
    )


def _kernel_bits(tracer: "Tracer", poly) -> None:
    tracer.maxes["orthopoly.kernel_bits_max"] = max(
        tracer.maxes["orthopoly.kernel_bits_max"], max((_bits(c) for c in poly.coeffs), default=0)
    )


def _roots(tracer: "Tracer", roots) -> None:
    tracer.counts["exact.roots"] += len(roots)
    tracer.counts["exact.roots_exact"] += sum(1 for r in roots if r.lo == r.hi)


def _atoms(tracer: "Tracer", measure) -> None:
    tracer.counts["recovery.atoms"] += len(measure.atoms)


def _trials(tracer: "Tracer", report) -> None:
    tracer.counts["identities.trials"] += report.trials


# (module, attribute, span name, observer of the return value)
TARGETS = (
    ("hankelmp.cli", "classify", "hankel.classify", None),
    ("hankelmp.cli", "det_sequence", "hankel.det_sequence", _det_bits),
    ("hankelmp.cli", "reconstruct", "recovery.reconstruct", _atoms),
    ("hankelmp.cli", "extend", "recovery.extend", None),
    ("hankelmp.hankel", "det_sequence", "hankel.det_sequence", _det_bits),
    ("hankelmp.hankel", "det_exact", "hankel.det_exact", None),
    ("hankelmp.orthopoly", "monic_orthogonal_poly", "orthopoly.monic_orthogonal_poly", _kernel_bits),
    ("hankelmp.orthopoly", "det_exact", "hankel.det_exact", None),
    ("hankelmp.recovery", "classify", "hankel.classify", None),
    ("hankelmp.recovery", "monic_orthogonal_poly", "orthopoly.monic_orthogonal_poly", _kernel_bits),
    ("hankelmp.recovery", "sturm_isolate", "exact.sturm_isolate", _roots),
    ("hankelmp.recovery", "refine_root", "exact.refine_root", None),
    ("hankelmp.identities", "is_psd", "hankel.is_psd", None),
    ("hankelmp.identities", "det_exact", "hankel.det_exact", None),
    ("hankelmp.identities", "det_sequence", "hankel.det_sequence", _det_bits),
    ("hankelmp.identities", "classify", "hankel.classify", None),
    ("hankelmp.identities", "reconstruct", "recovery.reconstruct", _atoms),
    ("hankelmp.identities", "measure_moments", "recovery.measure_moments", None),
)
# The CLI dispatches campaigns through the runner functions held in this table.
CAMPAIGN_TABLE = ("hankelmp.cli", "_CAMPAIGNS", "identities.campaign", _trials)


def _lookup(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


class Tracer:
    """Spans of the wrapped calls; ``request`` numbers the traced request."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.request = 0
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.maxes: defaultdict[str, int] = defaultdict(int)
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def install(self) -> None:
        self.skipped = []
        for module, attr, name, observe in TARGETS:
            original = _lookup(module, attr)
            if not callable(original):
                self.skipped.append(f"{module}.{attr}")
                continue
            owner = importlib.import_module(module)
            setattr(owner, attr, self.wrap(name, original, observe))
            self._restore.append(lambda o=owner, a=attr, f=original: setattr(o, a, f))
        module, attr, name, observe = CAMPAIGN_TABLE
        table = _lookup(module, attr)
        if not isinstance(table, dict):
            self.skipped.append(f"{module}.{attr}")
            return
        for key, entry in list(table.items()):
            table[key] = (self.wrap(name, entry[0], observe),) + tuple(entry[1:])
            self._restore.append(lambda t=table, k=key, e=entry: t.__setitem__(k, e))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: inclusive seconds, self seconds and call count.

        Inclusive time counts only spans with no ancestor of the same name,
        so a recursive call is not counted twice.  Self time is a span's
        duration minus the durations of its direct children, which nest
        inside it and do not overlap one another.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                inclusive[name] += end - start
        return inclusive, own, calls


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-layer figures from a traced run of ``requests`` requests.

    ``*.ms`` and ``*.self_ms`` are per request, ``*.calls`` are calls per
    request; a layer the workload never calls reads 0.
    """
    inclusive, own, calls = tracer.totals()
    per = max(requests, 1)
    out: dict[str, float] = {}
    for name in ("hankel.det_sequence", "orthopoly.monic_orthogonal_poly", "hankel.is_psd",
                 "hankel.det_exact", "exact.sturm_isolate", "exact.refine_root"):
        out[f"{name}.ms"] = 1000 * inclusive[name] / per
        out[f"{name}.calls"] = calls[name] / per
    out["recovery.measure_moments.ms"] = 1000 * inclusive["recovery.measure_moments"] / per
    for name in ("cli.run", "hankel.classify", "recovery.reconstruct", "recovery.extend",
                 "identities.campaign"):
        out[f"{name}.self_ms"] = 1000 * own[name] / per
    out["hankel.det_bits_max"] = tracer.maxes["hankel.det_bits_max"]
    out["orthopoly.kernel_bits_max"] = tracer.maxes["orthopoly.kernel_bits_max"]
    roots = tracer.counts["exact.roots"]
    out["exact.roots_exact_frac"] = tracer.counts["exact.roots_exact"] / roots if roots else 0.0
    atoms = tracer.counts["recovery.atoms"]
    refine_from_recovery = sum(
        1 for name, _, _, parent, _ in tracer.spans
        if name == "exact.refine_root" and parent >= 0
        and tracer.spans[parent][0] == "recovery.reconstruct"
    )
    out["recovery.refine_per_atom"] = refine_from_recovery / atoms if atoms else 0.0
    out["identities.trials"] = tracer.counts["identities.trials"] / per
    return out
