"""Outside tracer for the symres benchmark.

The tracer measures layers from outside the library: it replaces the public
functions of each ``symres`` module, as they are bound in every module
namespace that uses them, with wrappers that record spans, and restores the
originals afterwards. Nothing in ``src/`` knows about it.

A span is (id, parent id, name, start, end, item id). Self time is a span's
duration minus the time covered by its child spans. The oracle counters are
derived from the spans that run inside one ``macaulay_resultant`` call.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter

import symres.cli
import symres.closedform
import symres.finsler
import symres.oracle
import symres.polycore
import symres.symcubic

MODULES = (symres, symres.polycore, symres.symcubic, symres.closedform,
           symres.oracle, symres.finsler, symres.cli)

#: Public functions traced, by defining module; each module is one layer.
FUNCTIONS = {
    "polycore": (symres.polycore, ("monomials_of_degree",)),
    "closedform": (symres.closedform, ("closed_form_resultant", "resultant_via_reduction")),
    "oracle": (symres.oracle, ("macaulay_resultant", "det_rational", "det_bareiss",
                               "root_witness", "verify_witness")),
    "finsler": (symres.finsler, ("configuratrix_resultant", "configuratrix_system",
                                 "indicatrix_degenerate")),
    "cli": (symres.cli, ("main",)),
}

#: Public methods traced, by defining class.
METHODS = {
    "polycore": (symres.polycore.MultiPoly, ("substitute_linear", "eval")),
    "symcubic": (symres.symcubic.SymmetricCubic, ("expand", "gradient_system",
                                                  "normalized_coeffs")),
}

LAYERS = ("polycore", "symcubic", "closedform", "oracle", "finsler", "cli")

#: Spans kept for the trace file; aggregates always cover every span.
MAX_STORED_SPANS = 200_000

# A direct ratio and a pencil both rest on two determinants, det(M) and
# det(M') (for the pencil, their interpolated lowest coefficients); a
# substitution adds det(T).
USEFUL_DETS = {"direct": 2, "substitution": 3, "pencil": 2}


@functools.lru_cache(maxsize=None)
def matrix_sizes(degrees: tuple[int, ...]) -> tuple[int, int]:
    """Sizes N and N' of the Macaulay matrix and its minor, from the degrees alone."""
    n = len(degrees)
    nu = sum(d - 1 for d in degrees) + 1
    size = size_prime = 0
    for cut in itertools.combinations(range(nu + n - 1), n - 1):
        bounds = (-1,) + cut + (nu + n - 1,)
        exps = [bounds[i + 1] - bounds[i] - 1 for i in range(n)]
        size += 1
        if sum(e >= d for e, d in zip(exps, degrees)) >= 2:
            size_prime += 1
    return size, size_prime


class Tracer:
    """Records spans around symres's public functions while installed."""

    def __init__(self) -> None:
        self.item = None
        self.paused = False
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.span_count = 0
        self._ids = itertools.count()
        self._stack: list[list] = []
        self._oracle: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        for layer, (module, names) in FUNCTIONS.items():
            for name in names:
                original = getattr(module, name)
                traced = self._wrap(f"{layer}.{name}", original)
                for mod in MODULES:
                    if mod.__dict__.get(name) is original:
                        self._replace(mod, name, traced)
        for layer, (cls, names) in METHODS.items():
            for name in names:
                self._replace(cls, name, self._wrap(f"{layer}.{name}", cls.__dict__[name]))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _replace(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        enter = getattr(self, "_enter_" + name.split(".")[1], None)
        leave = getattr(self, "_leave_" + name.split(".")[1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(args)
            frame = [next(tracer._ids), 0.0]
            stack = tracer._stack
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                tracer.span_count += 1
                if len(tracer.spans) < MAX_STORED_SPANS:
                    tracer.spans.append((frame[0], parent[0] if parent else None, name,
                                         start, end, tracer.item))
                if leave is not None:
                    leave(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def pause(self):
        """Run wrapped functions untraced inside the block (the correctness gates)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def write(self, path) -> None:
        """Write the stored spans as JSON lines, after one header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.span_count,
                                 "stored": len(self.spans),
                                 "fields": ["id", "parent", "name", "start", "end", "item"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- derived counters -----------------------------------------------------

    def _enter_macaulay_resultant(self, args) -> None:
        self._oracle.append({"dets": 0, "substitutions": 0, "after_substitution": 0,
                             "system": args[0]})

    def _leave_macaulay_resultant(self, args, result) -> None:
        call = self._oracle.pop()
        if result is None:
            return
        system = call["system"]
        dets = call["dets"]
        if dets - call["after_substitution"] > 2:
            strategy = "pencil"
        elif call["substitutions"]:
            strategy = "substitution"
        else:
            strategy = "direct"
        size, size_prime = matrix_sizes(tuple(system.degrees))
        c = self.counts
        c["oracle.calls"] += 1
        c["oracle.strategy." + strategy] += 1
        c["oracle.substitution_seeds"] += call["substitutions"] // len(system.forms)
        c["oracle.dets"] += dets
        c["oracle.dets_useful"] += USEFUL_DETS[strategy]
        c["oracle.matrix.N"] += size
        c["oracle.matrix.N_prime"] += size_prime

    def _leave_substitute_linear(self, args, result) -> None:
        if self._oracle:
            call = self._oracle[-1]
            call["substitutions"] += 1
            call["after_substitution"] = call["dets"]

    def _leave_det_bareiss(self, args, result) -> None:
        if result is None:
            return
        rows = args[0]
        c = self.counts
        c["oracle.det_bareiss.entries"] += len(rows) * len(rows)
        c["oracle.det_bareiss.nonzeros"] += sum(1 for row in rows for x in row if x)
        if result:
            c["oracle.det.nonzero"] += 1
            c["oracle.det.bits"] += abs(result).bit_length()
        if self._oracle:
            self._oracle[-1]["dets"] += 1

    def _leave_verify_witness(self, args, result) -> None:
        if result:
            self.counts["oracle.witness_hits"] += 1

    def _leave_closed_form_resultant(self, args, result) -> None:
        if result is not None:
            value = result.canonical_value
            self.counts["closedform.canonical_bits"] += (
                value.numerator.bit_length() + value.denominator.bit_length())

    def _leave_configuratrix_resultant(self, args, result) -> None:
        if result is not None and result.diagnostic is not None:
            self.counts["finsler.degenerate_shortcut"] += 1


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, items: int) -> dict[str, float]:
    """Per-item layer metrics from the tracer's aggregates (zeros included)."""
    s, calls, c = tracer.self_s, tracer.calls, tracer.counts
    per = lambda v: v / items  # noqa: E731
    oracle_calls = c["oracle.calls"]
    out = {}
    for name in ("polycore.substitute_linear", "symcubic.expand",
                 "symcubic.gradient_system", "closedform.closed_form_resultant",
                 "oracle.macaulay_resultant", "oracle.det_bareiss",
                 "oracle.verify_witness"):
        out[name + ".calls"] = per(calls[name])
    for name in ("polycore.substitute_linear", "polycore.eval",
                 "polycore.monomials_of_degree", "symcubic.expand",
                 "symcubic.gradient_system",
                 "closedform.closed_form_resultant", "closedform.resultant_via_reduction",
                 "oracle.macaulay_resultant", "oracle.det_rational", "oracle.det_bareiss",
                 "oracle.root_witness", "oracle.verify_witness",
                 "finsler.configuratrix_system", "finsler.configuratrix_resultant",
                 "cli.main"):
        out[name + ".self_s"] = per(s[name])
    for layer in LAYERS:
        out[layer + ".self_s"] = per(sum(v for k, v in s.items() if k.startswith(layer + ".")))
    out["oracle.det_bareiss.entries"] = per(c["oracle.det_bareiss.entries"])
    out["oracle.det_bareiss.nonzeros"] = per(c["oracle.det_bareiss.nonzeros"])
    out["oracle.det.bits"] = ratio(c["oracle.det.bits"], c["oracle.det.nonzero"])
    out["oracle.matrix.N"] = ratio(c["oracle.matrix.N"], oracle_calls)
    out["oracle.matrix.N_prime"] = ratio(c["oracle.matrix.N_prime"], oracle_calls)
    for strategy in USEFUL_DETS:
        out["oracle.strategy." + strategy] = ratio(c["oracle.strategy." + strategy], oracle_calls)
    out["oracle.substitution_seeds"] = ratio(c["oracle.substitution_seeds"], oracle_calls)
    out["oracle.det_useful_ratio"] = ratio(c["oracle.dets_useful"], c["oracle.dets"])
    out["oracle.witness_hit_ratio"] = ratio(c["oracle.witness_hits"],
                                            calls["oracle.verify_witness"])
    out["closedform.canonical_bits"] = ratio(c["closedform.canonical_bits"],
                                             calls["closedform.closed_form_resultant"])
    out["finsler.degenerate_shortcut"] = ratio(c["finsler.degenerate_shortcut"],
                                               calls["finsler.configuratrix_resultant"])
    return out
