"""In-memory span tracer that instruments ``pdsplit`` from the outside.

A traced run patches the layer boundaries of the package for its own
process and restores them afterwards:

* module functions that the solvers reach through their module, such as
  ``pdsplit.saddle.primal_objective``, ``pdsplit.linops.op_norm`` and
  ``pdsplit.bench.reference_solve``;
* ``apply``/``apply_adjoint`` of the leaf operator classes, ``prox`` and
  ``primal_value`` of the conjugate-prox classes, and the stochastic
  gradient draw;
* ``grad`` and ``value`` on the loss instance of every problem that
  ``bench.generate`` or ``bench.load_bundle`` returns.

Methods are patched on the class or the instance; no object is replaced,
because ``densify``, ``write_triplets`` and ``partition_problem`` branch on
the original classes.  An operator product is named ``K`` when its operator
is the coupling operator of a generated or loaded problem and ``A`` (the
design) otherwise.

Each span records its name, start, end, parent and the id of the operation
(one solver call or CLI verb) that caused it.  Spans stay in memory until
:meth:`Tracer.write` and are turned into per-layer numbers by
:func:`layer_metrics`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time

from pdsplit import accel, bench, cli, fb, linops, prox, saddle, shard, stoch

_MISSING = object()

DET_SOLVERS = ("fb.run_fb", "fb.run_fbf", "accel.run_accel")
FB_SOLVERS = ("fb.run_fb", "fb.run_fbf")
SOLVERS = DET_SOLVERS + ("stoch.run_stoc", "shard.run_fb_sharded")
STEPS = ("fb.fb_step", "fb.fbf_step", "accel.accel_step", "stoch.stoc_accel_step")

# Leaf operator classes; ScaledOp and VStackOp delegate to these, so
# patching them as well would count one product twice.
_OPERATOR_CLASSES = (linops.DenseOp, linops.SparseOp, linops.IdentityOp)

# Composite delegates to its parts, which are patched themselves.
_PROX_CLASSES = tuple(
    cls
    for cls in vars(prox).values()
    if isinstance(cls, type)
    and issubclass(cls, prox.ConjugateProx)
    and cls not in (prox.ConjugateProx, prox.Composite)
)


SPAN_FIELDS = ["name", "parent", "op", "start", "end", "cpu", "attrs"]


class Span:
    """One timed call at a layer boundary."""

    __slots__ = tuple(SPAN_FIELDS)

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.cpu = None
        self.attrs = None


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _run_fb_attrs(args, kwargs, result):
    tol = kwargs.get("tol", args[4] if len(args) > 4 else None)
    return {"iterations": int(result.iterations), "tol": tol}


def _shard_attrs(args, kwargs, result):
    return {
        "iterations": int(result.iterations),
        "comm_entries": int(result.ledger.column("total_comm").sum()),
    }


class Tracer:
    """Collects spans from patched ``pdsplit`` boundaries.

    Use :meth:`install` once, then :meth:`enabled` around the calls to
    trace; while disabled, every patched boundary calls straight through.
    :meth:`uninstall` restores every patched attribute.
    """

    def __init__(self):
        self.spans = []
        self.on = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._main = threading.main_thread()
        self._op = 0
        self._restore = []
        self._k_ops = {}

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, cpu=False):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A worker thread's first span hangs under the span the main
            # thread is blocked in (the call that started the pool).
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = -1
        span = Span(name, parent, self._op)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        if cpu:
            span.cpu = time.thread_time()
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        if span.cpu is not None:
            span.cpu = time.thread_time() - span.cpu
        self._stack().pop()

    @contextlib.contextmanager
    def enabled(self, on=True):
        """Trace (or, with ``on=False``, pause tracing) inside the block."""
        previous, self.on = self.on, on
        try:
            yield self
        finally:
            self.on = previous

    def reset(self):
        """Drop recorded spans, keeping the patches in place."""
        self.spans = []
        self._op = 0

    @contextlib.contextmanager
    def operation(self, name):
        """Root span of one solver call or verb; its children share its id."""
        if not self.on:
            yield
            return
        self._op += 1
        span = self._open("op." + name)
        try:
            yield
        finally:
            self._close(span)

    # -- patching ---------------------------------------------------------

    def wrap(self, name, fn, attrs=None, cpu=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = tracer._open(name, cpu)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def _wrap_product(self, method, direction):
        tracer = self
        names = {True: f"linops.K.{direction}", False: f"linops.A.{direction}"}

        @functools.wraps(method)
        def traced(op, vec):
            if not tracer.on:
                return method(op, vec)
            span = tracer._open(names[id(op) in tracer._k_ops])
            try:
                return method(op, vec)
            finally:
                tracer._close(span)

        return traced

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr, name, **kw):
        self._patch(module, attr, self.wrap(name, getattr(module, attr), **kw))

    def register(self, generated):
        """Name a problem's coupling operator ``K`` and trace its loss."""
        problem = generated.problem
        self._k_ops[id(problem.K)] = problem.K
        loss = problem.loss
        if not getattr(loss.grad, "_perfbench_traced", False):
            for attr, name in (("grad", "saddle.loss.grad"), ("value", "saddle.loss.value")):
                wrapped = self.wrap(name, getattr(loss, attr))
                wrapped._perfbench_traced = True
                self._patch(loss, attr, wrapped)
        return generated

    def _registering(self, name, fn):
        traced = self.wrap(name, fn)
        tracer = self

        @functools.wraps(fn)
        def call(*args, **kwargs):
            generated = traced(*args, **kwargs)
            if tracer.on:
                tracer.register(generated)
            return generated

        return call

    def install(self):
        """Patch every layer boundary (idempotent per tracer)."""
        if self._restore:
            return
        fn = self._patch_function
        fn(linops, "op_norm", "linops.op_norm")
        fn(saddle, "primal_objective", "saddle.primal_objective")
        fn(fb, "run_fb", "fb.run_fb", attrs=_run_fb_attrs)
        fn(fb, "run_fbf", "fb.run_fbf", attrs=_iterations)
        fn(fb, "fb_step", "fb.fb_step")
        fn(fb, "fbf_step", "fb.fbf_step")
        fn(accel, "run_accel", "accel.run_accel", attrs=_iterations)
        fn(accel, "accel_step", "accel.accel_step")
        fn(stoch, "run_stoc", "stoch.run_stoc")
        fn(stoch, "stoc_accel_step", "stoch.stoc_accel_step", cpu=True)
        fn(shard, "run_fb_sharded", "shard.run_fb_sharded", attrs=_shard_attrs)
        fn(bench, "save_bundle", "bench.save_bundle")
        fn(bench, "auto_norm_bounds", "bench.auto_norm_bounds")
        fn(bench, "reference_solve", "bench.reference_solve", attrs=_iterations)
        fn(bench, "save_reference", "bench.save_reference")
        fn(cli, "_write_summary", "cli.csv_write")
        self._patch(bench, "generate", self._registering("bench.generate", bench.generate))
        self._patch(
            bench, "load_bundle", self._registering("bench.load_bundle", bench.load_bundle)
        )
        self._patch(fb.IterTrace, "to_csv", self.wrap("cli.csv_write", fb.IterTrace.to_csv))
        self._patch(
            stoch.MaskedGradOracle,
            "grad",
            self.wrap("stoch.grad_draw", stoch.MaskedGradOracle.grad),
        )
        for cls in _OPERATOR_CLASSES:
            for direction in ("apply", "apply_adjoint"):
                self._patch(cls, direction, self._wrap_product(vars(cls)[direction], direction))
        for cls in _PROX_CLASSES:
            for attr in ("prox", "primal_value"):
                if attr in vars(cls):
                    self._patch(cls, attr, self.wrap(f"prox.{attr}", vars(cls)[attr]))

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._k_ops.clear()

    def write(self, path, header):
        """Write the header, then one JSON list per span in ``SPAN_FIELDS`` order.

        A span's id is its zero-based position after the header line;
        ``parent`` is -1 for a root span.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "fields": SPAN_FIELDS}) + "\n")
            for s in self.spans:
                row = [s.name, s.parent, s.op, s.start, s.end, s.cpu, s.attrs]
                fh.write(json.dumps(row) + "\n")


def _covered(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


PER_LAYER = {
    "linops.op_norm_iters": "count",
    "linops.op_norm_s": "s",
    "linops.K_fwd_per_step": "count/step",
    "linops.K_adj_per_step": "count/step",
    "linops.K_s": "s",
    "linops.A_fwd_per_step": "count/step",
    "linops.A_adj_per_step": "count/step",
    "linops.A_s": "s",
    "prox.prox_per_step": "count/step",
    "prox.prox_s": "s",
    "prox.primal_value_calls": "count",
    "prox.primal_value_s": "s",
    "saddle.objective_calls": "count",
    "saddle.objective_s": "s",
    "saddle.grad_per_step": "count/step",
    "saddle.grad_self_s": "s",
    "fb.steps": "count",
    "fb.iters_to_tol": "count",
    "fb.loop_self_s": "s",
    "fb.trace_share": "fraction",
    "accel.steps": "count",
    "accel.products_per_step": "count/step",
    "accel.loop_self_s": "s",
    "shard.comm_entries_per_step": "count/step",
    "shard.run_s": "s",
    "stoch.steps": "count",
    "stoch.run_s": "s",
    "stoch.grad_draw_s": "s",
    "stoch.step_wait_s": "s",
    "bench.generate_s": "s",
    "bench.auto_norm_bounds_s": "s",
    "bench.reference_s": "s",
    "bench.reference_steps": "count",
    "bench.save_bundle_s": "s",
    "bench.load_bundle_s": "s",
    "cli.verb_self_s": "s",
    "cli.csv_write_s": "s",
}


def _nearest(spans, names):
    """For every span, the index of its nearest ancestor-or-self in names."""
    out = []
    for s in spans:
        if s.name in names:
            out.append(len(out))
        else:
            out.append(out[s.parent] if s.parent >= 0 else -1)
    return out


def step_counts(spans, solvers=DET_SOLVERS):
    """Steps and boundary calls inside steps, grouped by solver name.

    Returns ``{solver: {"steps": n, name: calls, ...}}`` where ``name`` runs
    over the span names met inside steps (products, prox, gradients).
    Trace rows are evaluated outside steps, so they never count here.
    """
    solver_of = _nearest(spans, set(SOLVERS))
    step_of = _nearest(spans, set(STEPS))
    out = {}
    for i, s in enumerate(spans):
        st = step_of[i]
        if st < 0:
            continue
        solver = spans[solver_of[st]].name if solver_of[st] >= 0 else None
        if solver not in solvers:
            continue
        row = out.setdefault(solver, {"steps": 0})
        key = "steps" if st == i else s.name
        row[key] = row.get(key, 0) + 1
    return out


def layer_metrics(spans):
    """Per-layer numbers of one traced repetition, keyed as ``PER_LAYER``."""
    total = {}
    count = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        count[s.name] = count.get(s.name, 0) + 1

    children = {}
    self_needed = {"saddle.loss.grad", "accel.run_accel", *FB_SOLVERS}
    for i, s in enumerate(spans):
        if s.name in self_needed or s.name.startswith("op.cli."):
            children[i] = []
    for s in spans:
        if s.parent in children:
            children[s.parent].append((s.start, s.end))
    self_time = {}
    for i, kids in children.items():
        s = spans[i]
        own = (s.end - s.start) - _covered(kids, s.start, s.end)
        key = "cli.verb" if s.name.startswith("op.cli.") else s.name
        self_time[key] = self_time.get(key, 0.0) + own

    det = step_counts(spans)
    det_steps = sum(row["steps"] for row in det.values())

    def per_step(name):
        calls = sum(row.get(name, 0) for row in det.values())
        return calls / det_steps if det_steps else 0.0

    op_norm_of = _nearest(spans, {"linops.op_norm"})
    op_norm_iters = sum(
        1
        for i, s in enumerate(spans)
        if op_norm_of[i] >= 0 and s.name.endswith(".apply_adjoint")
    )

    fb_time = sum(total.get(n, 0.0) for n in FB_SOLVERS)
    trace_rows = sum(
        s.end - s.start
        for s in spans
        if s.name == "saddle.primal_objective"
        and s.parent >= 0
        and spans[s.parent].name in FB_SOLVERS
    )

    accel_row = det.get("accel.run_accel", {"steps": 0})
    accel_products = accel_row.get("linops.K.apply", 0) + accel_row.get(
        "linops.K.apply_adjoint", 0
    )
    def attr_sum(name, key):
        # A call that raised has no attributes.
        return sum(s.attrs[key] for s in spans if s.name == name and s.attrs)

    shard_steps = attr_sum("shard.run_fb_sharded", "iterations")
    shard_entries = attr_sum("shard.run_fb_sharded", "comm_entries")
    iters_to_tol = sum(
        s.attrs["iterations"]
        for s in spans
        if s.name == "fb.run_fb" and s.attrs and s.attrs["tol"] is not None
    )
    step_wait = sum(
        ((s.end - s.start) - s.cpu for s in spans if s.name == "stoch.stoc_accel_step"),
        0.0,
    )
    reference_steps = attr_sum("bench.reference_solve", "iterations")
    fb_steps = sum(det.get(n, {"steps": 0})["steps"] for n in FB_SOLVERS)

    values = {
        "linops.op_norm_iters": op_norm_iters,
        "linops.op_norm_s": total.get("linops.op_norm", 0.0),
        "linops.K_fwd_per_step": per_step("linops.K.apply"),
        "linops.K_adj_per_step": per_step("linops.K.apply_adjoint"),
        "linops.K_s": total.get("linops.K.apply", 0.0) + total.get("linops.K.apply_adjoint", 0.0),
        "linops.A_fwd_per_step": per_step("linops.A.apply"),
        "linops.A_adj_per_step": per_step("linops.A.apply_adjoint"),
        "linops.A_s": total.get("linops.A.apply", 0.0) + total.get("linops.A.apply_adjoint", 0.0),
        "prox.prox_per_step": per_step("prox.prox"),
        "prox.prox_s": total.get("prox.prox", 0.0),
        "prox.primal_value_calls": count.get("prox.primal_value", 0),
        "prox.primal_value_s": total.get("prox.primal_value", 0.0),
        "saddle.objective_calls": count.get("saddle.primal_objective", 0),
        "saddle.objective_s": total.get("saddle.primal_objective", 0.0),
        "saddle.grad_per_step": per_step("saddle.loss.grad"),
        "saddle.grad_self_s": self_time.get("saddle.loss.grad", 0.0),
        "fb.steps": fb_steps,
        "fb.iters_to_tol": iters_to_tol,
        "fb.loop_self_s": sum(self_time.get(n, 0.0) for n in FB_SOLVERS),
        "fb.trace_share": trace_rows / fb_time if fb_time else 0.0,
        "accel.steps": count.get("accel.accel_step", 0),
        "accel.products_per_step": (
            accel_products / accel_row["steps"] if accel_row["steps"] else 0.0
        ),
        "accel.loop_self_s": self_time.get("accel.run_accel", 0.0),
        "shard.comm_entries_per_step": shard_entries / shard_steps if shard_steps else 0.0,
        "shard.run_s": total.get("shard.run_fb_sharded", 0.0),
        "stoch.steps": count.get("stoch.stoc_accel_step", 0),
        "stoch.run_s": total.get("stoch.run_stoc", 0.0),
        "stoch.grad_draw_s": total.get("stoch.grad_draw", 0.0),
        "stoch.step_wait_s": step_wait,
        "bench.generate_s": total.get("bench.generate", 0.0),
        "bench.auto_norm_bounds_s": total.get("bench.auto_norm_bounds", 0.0),
        "bench.reference_s": total.get("bench.reference_solve", 0.0),
        "bench.reference_steps": reference_steps,
        "bench.save_bundle_s": total.get("bench.save_bundle", 0.0),
        "bench.load_bundle_s": total.get("bench.load_bundle", 0.0),
        "cli.verb_self_s": self_time.get("cli.verb", 0.0),
        "cli.csv_write_s": total.get("cli.csv_write", 0.0),
    }
    return values
