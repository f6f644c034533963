"""Per-layer tracing of the okubo package, done from outside.

Each layer's public functions are replaced, for the length of a traced
pass only, by wrappers bound at the names their callers resolve (for
example ``okubo.cli.numeric_monodromy`` for ``cmd_verify`` and
``okubo.verify.solve_ivp`` for ``continue_along``).  A wrapper records a
span (op id, name, start, end, parent) and the counts named in
``PER_LAYER_UNITS``; nothing under ``src/`` changes.

Self time is exact: a span's duration minus the durations of its direct
children, accumulated on a stack.  The gamma wrappers are the exception to
span recording: a formulas run makes millions of gamma calls, so they only
add their count and duration (to their parent's child time and to the core
layer) instead of keeping one record per call.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from collections import defaultdict

from okubo.core import OkuboError, ResonanceError, SingularPsi, StepFailure

# (module, attribute, span name, time metric or None, leaf)
# The span name's prefix is the layer that owns the function.
TARGETS = (
    ("okubo.cli", "main", "cli.main", None, False),
    # verify: numerical oracle
    ("okubo.cli", "numeric_monodromy", "verify.numeric_monodromy", None, False),
    ("okubo.cli", "numeric_canonical_solution",
     "verify.numeric_canonical_solution", None, False),
    ("okubo.verify", "numeric_canonical_solution",
     "verify.numeric_canonical_solution", None, False),
    ("okubo.cli", "numeric_determinant", "verify.numeric_determinant", None, False),
    ("okubo.cli", "spectrum_matches", "verify.spectrum_matches", None, False),
    ("okubo.verify", "adaptive_series", "verify.adaptive_series",
     "verify.series_s", False),
    ("okubo.verify", "frobenius_series", "verify.frobenius_series",
     "verify.series_s", False),
    ("okubo.verify", "eval_local_block", "verify.eval_local_block", None, False),
    ("okubo.verify", "continue_along", "verify.continue_along",
     "verify.transport_s", False),
    ("okubo.verify", "solve_ivp", "verify.solve_ivp", "verify.ode_s", False),
    ("okubo.verify", "intertwiner", "verify.intertwiner",
     "verify.intertwiner_s", False),
    # connection: closed forms, recurrences, determinant
    ("okubo.cli", "closed_form_connection", "connection.closed_form_connection",
     "connection.closed_form_s", False),
    ("okubo.connection", "closed_form_connection",
     "connection.closed_form_connection", "connection.closed_form_s", False),
    ("okubo.cli", "recurrence_connection", "connection.recurrence_connection",
     "connection.recurrence_s", False),
    ("okubo.connection", "chain_connection", "connection.chain_connection",
     None, False),
    ("okubo.connection", "symmetry_extend", "connection.symmetry_extend",
     None, False),
    ("okubo.connection", "recurrence_step", "connection.recurrence_step",
     None, False),
    ("okubo.connection", "initial_connection", "connection.initial_connection",
     None, False),
    ("okubo.cli", "assemble_monodromy", "connection.assemble_monodromy",
     None, False),
    ("okubo.connection", "assemble_monodromy", "connection.assemble_monodromy",
     None, False),
    ("okubo.cli", "okubo_determinant", "connection.okubo_determinant",
     "connection.determinant_s", False),
    # yokoyama: canonical forms and chains
    ("okubo.cli", "canonical_system", "yokoyama.canonical_system",
     "yokoyama.canonical_system_s", False),
    ("okubo.yokoyama", "canonical_system", "yokoyama.canonical_system",
     "yokoyama.canonical_system_s", False),
    ("okubo.cli", "katz_chain", "yokoyama.katz_chain",
     "yokoyama.katz_chain_s", False),
    ("okubo.cli", "xieta_closed_form", "yokoyama.xieta_closed_form",
     "yokoyama.xieta_s", False),
    ("okubo.yokoyama", "xieta_closed_form", "yokoyama.xieta_closed_form",
     "yokoyama.xieta_s", False),
    ("okubo.cli", "xieta_matrix_expression", "yokoyama.xieta_matrix_expression",
     "yokoyama.xieta_s", False),
    ("okubo.yokoyama", "_descend", "yokoyama.descend", None, False),
    ("okubo.connection", "swap_spec", "yokoyama.swap_spec", None, False),
    # katz: middle convolutions
    ("okubo.yokoyama", "mc_add_system", "katz.mc_add_system",
     "katz.mc_add_system_s", False),
    ("okubo.yokoyama", "middle_convolution_system",
     "katz.middle_convolution_system", "katz.middle_convolution_system_s", False),
    ("okubo.katz", "mc_add_monodromy", "katz.mc_add_monodromy",
     "katz.mc_add_monodromy_s", False),
    # core: gamma code as called from connection, schema conversion
    ("okubo.connection", "gamma_ratio", "core.gamma_ratio", "core.gamma_s", True),
    ("okubo.connection", "lgamma_c", "core.lgamma_c", "core.gamma_s", True),
    ("okubo.connection", "gamma_c", "core.gamma_c", "core.gamma_s", True),
    ("okubo.verify", "okubo_to_schlesinger", "core.okubo_to_schlesinger",
     None, False),
    ("okubo.cli", "default_config", "core.default_config", None, False),
)

# Time metrics that take their spans' self time; the others take the time
# of their outermost spans.
SELF_TIME_METRICS = ("verify.transport_s",)

# Exceptions counted as oracle errors when they leave a verify span.
VERIFY_ERRORS = (ResonanceError, StepFailure, SingularPsi)

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER_UNITS = {
    "verify.series_s": "s",
    "verify.series_calls": "count",
    "verify.series_orders_computed": "count",
    "verify.series_orders_kept": "count",
    "verify.series_useful_ratio": "ratio",
    "verify.series_regrows": "count",
    "verify.ode_s": "s",
    "verify.ode_calls": "count",
    "verify.ode_nfev": "count",
    "verify.ode_steps": "count",
    "verify.transport_s": "s",
    "verify.canonical_solution_calls": "count",
    "verify.intertwiner_s": "s",
    "verify.errors": "count",
    "verify.self_s": "s",
    "connection.closed_form_s": "s",
    "connection.recurrence_s": "s",
    "connection.chain_connection_calls": "count",
    "connection.determinant_s": "s",
    "connection.self_s": "s",
    "core.gamma_calls": "count",
    "core.gamma_s": "s",
    "core.to_schlesinger_calls": "count",
    "core.self_s": "s",
    "yokoyama.katz_chain_s": "s",
    "yokoyama.canonical_system_s": "s",
    "yokoyama.xieta_s": "s",
    "yokoyama.self_s": "s",
    "katz.mc_add_system_s": "s",
    "katz.mc_add_system_calls": "count",
    "katz.middle_convolution_system_s": "s",
    "katz.mc_add_monodromy_s": "s",
    "katz.mc_add_monodromy_calls": "count",
    "katz.errors": "count",
    "katz.self_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Span and count recorder for one traced pass.

    Wrappers record only while an op is open (``begin_op``/``end_op``), so
    the benchmark's own checks between ops are never attributed to a layer.
    """

    def __init__(self):
        self.spans = []          # (op, name, start, end, parent index)
        self.counts = defaultdict(int)
        self.metric_s = defaultdict(float)   # time metrics, outermost spans
        self.self_s = defaultdict(float)     # per layer
        self.op = None
        self._stack = []         # [span index, child time, name, series calls]
        self._open_metrics = defaultdict(int)
        self._seen_errors = set()
        self._installed = []

    # -- ops -------------------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id

    def end_op(self):
        self.op = None
        self._stack.clear()
        self._open_metrics.clear()
        self._seen_errors.clear()

    # -- wrappers ----------------------------------------------------------

    def install(self):
        """Replace every target attribute by its wrapper; idempotent only
        through ``uninstall``."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        try:
            for mod_name, attr, name, metric, leaf in TARGETS:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                wrapped = (self._leaf_wrapper if leaf else self._span_wrapper)(
                    orig, name, metric)
                setattr(mod, attr, wrapped)
                self._installed.append((mod, attr, orig))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._installed:
            mod, attr, orig = self._installed.pop()
            setattr(mod, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _span_wrapper(self, fn, name, metric):
        layer = name.split(".", 1)[0]
        hook = _HOOKS.get(name)
        self_time = metric in SELF_TIME_METRICS
        nested = metric if metric and not self_time else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0, name, 0]
            stack.append(frame)
            if nested:
                tracer._open_metrics[nested] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._count_error(layer, exc)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer.self_s[layer] += dur - frame[1]
                if self_time:
                    tracer.metric_s[metric] += dur - frame[1]
                elif nested:
                    tracer._open_metrics[nested] -= 1
                    if tracer._open_metrics[nested] == 0:
                        tracer.metric_s[nested] += dur
                tracer.spans[idx] = (tracer.op, name, t0, t1, parent)
            if hook:
                hook(tracer.counts, stack, args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, fn, name, metric):
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.self_s[layer] += dur
                tracer.metric_s[metric] += dur
                tracer.counts["core.gamma_calls"] += 1

        return wrapper

    def _count_error(self, layer, exc):
        if id(exc) in self._seen_errors:
            return
        if layer == "verify" and isinstance(exc, VERIFY_ERRORS):
            self._seen_errors.add(id(exc))
            self.counts["verify.errors"] += 1
        elif layer == "katz" and isinstance(exc, OkuboError):
            self._seen_errors.add(id(exc))
            self.counts["katz.errors"] += 1

    # -- results -----------------------------------------------------------

    def per_layer(self, verify_ops: int, report_bytes: int,
                  overhead_frac: float) -> dict:
        """Every per-layer metric, as {name: value}."""
        c = self.counts
        out = {}
        for name in PER_LAYER_UNITS:
            if name.endswith(".self_s"):
                out[name] = self.self_s[name.split(".", 1)[0]]
            elif name.endswith("_s"):
                out[name] = self.metric_s[name]
            else:
                out[name] = c[name]
        kept, computed = c["verify.series_orders_kept"], \
            c["verify.series_orders_computed"]
        out["verify.series_useful_ratio"] = kept / computed if computed else 0.0
        out["verify.canonical_solution_calls"] = (
            c["verify.canonical_solution_calls"] / verify_ops
            if verify_ops else 0.0)
        out["cli.report_bytes"] = report_bytes
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path):
        """Write the recorded spans as gzip'd tab-separated lines:
        op, name, start, end, parent index."""
        with gzip.open(path, "wt") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for span in self.spans:
                if span is not None:
                    op, name, t0, t1, parent = span
                    fh.write(f"{op}\t{name}\t{t0!r}\t{t1!r}\t{parent}\n")


# -- count hooks: (counts, open-span stack, args, kwargs, result) ----------

def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _frobenius(c, stack, args, kwargs, result):
    c["verify.series_calls"] += 1
    c["verify.series_orders_computed"] += int(_arg(args, kwargs, 2, "order"))
    # adaptive_series recomputes the series from order 0 on every growth
    if stack and stack[-1][2] == "verify.adaptive_series":
        stack[-1][3] += 1
        if stack[-1][3] > 1:
            c["verify.series_regrows"] += 1


def _eval_local(c, stack, args, kwargs, result):
    c["verify.series_orders_kept"] += _arg(args, kwargs, 1, "series").order


def _solve_ivp(c, stack, args, kwargs, result):
    c["verify.ode_calls"] += 1
    c["verify.ode_nfev"] += int(result.nfev)
    c["verify.ode_steps"] += len(result.t) - 1


def _counter(key):
    def hook(c, stack, args, kwargs, result):
        c[key] += 1
    return hook


_HOOKS = {
    "verify.frobenius_series": _frobenius,
    "verify.eval_local_block": _eval_local,
    "verify.solve_ivp": _solve_ivp,
    "verify.numeric_canonical_solution":
        _counter("verify.canonical_solution_calls"),
    "connection.chain_connection": _counter("connection.chain_connection_calls"),
    "core.okubo_to_schlesinger": _counter("core.to_schlesinger_calls"),
    "katz.mc_add_system": _counter("katz.mc_add_system_calls"),
    "katz.mc_add_monodromy": _counter("katz.mc_add_monodromy_calls"),
}
