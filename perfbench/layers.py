"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces public functions of the ``nullseq`` layer
modules with timing wrappers.  ``cli`` and ``certify`` bind names such as
``multiply_factors`` and ``search_quotient`` at import time, so every loaded
``nullseq`` module attribute that holds the original function is patched, not
only the defining module's.  ``uninstall()`` puts the originals back.

Spans are kept in memory as totals per bucket.  A call made while a span of
the same layer is open (``choose_fixes`` calling ``apply_fixes``, say) runs
untraced and is counted in the outer span, so a layer's time is never
counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# layer -> {function name: bucket}.  The buckets name the per-layer metrics.
LAYERS = {
    "engine": {"multiply_factors": "engine"},
    "quotient": {"search_quotient": "search"},
    "factors": {
        "build_p": "build",
        "build_q": "build",
        "apply_fixes": "build",
        "bounding_monomial": "build",
        "choose_fixes": "fix",
    },
    "certify": {"factorize": "factorize", "exceptional_primes": "factorize"},
    "oracle": {"scan_group": "scan", "verify_nonvanishing_conclusion": "verify"},
    "reports": {
        "case_records": "emit",
        "coefficient_record": "emit",
        "scan_record": "emit",
        "verification_record": "emit",
        "write_records": "emit",
    },
}


class Tracer:
    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.open_layers: list[str] = []
        self.peak_terms = 0
        self.term_ops = 0
        self.qs_scanned = 0
        self.coeff_bits_max = 0
        self.cert_attempts = 0
        self.cert_nonzero = 0
        self.scan_subsets = 0
        self.verify_subsets = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"nullseq.{layer}"]
            for name, bucket in names.items():
                original = getattr(module, name)
                wrappers[original] = self._span(layer, f"{layer}.{bucket}", original)
        # Wrapped for its attempt outcomes only; its time is that of the
        # layers below it.
        certify_type = sys.modules["nullseq.certify"].certify_type
        wrappers[certify_type] = self._certify_hook(certify_type)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "nullseq" or mod_name.startswith("nullseq.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- wrappers --------------------------------------------------------

    def _span(self, layer, bucket, fn):
        observe = getattr(self, "_observe_" + fn.__name__, None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer in self.open_layers:
                return fn(*args, **kwargs)
            after = None
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                after = observe(bound)
                args, kwargs = bound.args, bound.kwargs
            self.open_layers.append(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.open_layers.pop()
                self.seconds[bucket] = self.seconds.get(bucket, 0.0) + elapsed
                self.calls[bucket] = self.calls.get(bucket, 0) + 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _certify_hook(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for attempt in result.attempts:
                if attempt.outcome in ("zero", "nonzero", "aborted"):
                    self.cert_attempts += 1
                    self.cert_nonzero += attempt.outcome == "nonzero"
            return result

        return wrapper

    # -- per-function observers: prepare the call, return a result hook ----

    def _observe_multiply_factors(self, bound):
        """Count term-ops as the engine's own ``ops`` counter does: the
        number of live terms before a factor times that factor's size."""
        bound.apply_defaults()
        args = bound.arguments
        sizes = [sum(1 for _ in factor.terms()) for factor in args["fl"].factors]
        resume = args["resume"]
        state = {"live": 1 if resume is None else len(resume.terms)}
        self.peak_terms = max(self.peak_terms, state["live"])
        user_step = args["on_step"]

        def on_step(f, live):
            self.term_ops += state["live"] * sizes[f]
            state["live"] = live
            if live > self.peak_terms:
                self.peak_terms = live
            if user_step is not None:
                user_step(f, live)

        args["on_step"] = on_step
        return None

    def _observe_search_quotient(self, bound):
        def after(result):
            self.qs_scanned += result.scanned

        return after

    def _observe_factorize(self, bound):
        self.coeff_bits_max = max(self.coeff_bits_max, abs(bound.arguments["n"]).bit_length())
        return None

    def _observe_scan_group(self, bound):
        def after(report):
            self.scan_subsets += report.scanned

        return after

    def _observe_verify_nonvanishing_conclusion(self, bound):
        def after(report):
            self.verify_subsets += report.subsets_checked

        return after

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        s, n = self.seconds.get, self.calls.get
        engine_s = s("engine.engine", 0.0)
        oracle_s = s("oracle.scan", 0.0) + s("oracle.verify", 0.0)
        oracle_subsets = self.scan_subsets + self.verify_subsets
        return {
            "engine.s": engine_s,
            "engine.calls": n("engine.engine", 0),
            "engine.peak_terms": self.peak_terms,
            "engine.term_ops": self.term_ops,
            "engine.term_ops_per_s": self.term_ops / engine_s if engine_s else 0.0,
            "quotient.search_s": s("quotient.search", 0.0),
            "quotient.calls": n("quotient.search", 0),
            "quotient.scanned": self.qs_scanned,
            "factors.build_s": s("factors.build", 0.0),
            "factors.fix_s": s("factors.fix", 0.0),
            "factors.calls": n("factors.build", 0) + n("factors.fix", 0),
            "certify.attempts": self.cert_attempts,
            "certify.nonzero_share": (
                self.cert_nonzero / self.cert_attempts if self.cert_attempts else 0.0
            ),
            "certify.factorize_s": s("certify.factorize", 0.0),
            "certify.coeff_bits_max": self.coeff_bits_max,
            "oracle.scan_s": s("oracle.scan", 0.0),
            "oracle.scan_subsets": self.scan_subsets,
            "oracle.verify_s": s("oracle.verify", 0.0),
            "oracle.verify_subsets": self.verify_subsets,
            "oracle.subsets_per_s": oracle_subsets / oracle_s if oracle_s else 0.0,
            "reports.emit_s": s("reports.emit", 0.0),
        }
