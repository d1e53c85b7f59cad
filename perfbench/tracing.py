"""Span tracing of magep's public functions, installed from outside the package.

The tracer rebinds each listed public function, in every loaded ``magep``
module that holds a reference to it, to a wrapper that records a span
``(name, start, end, parent, op)``.  Spans stay in memory and are written out
when the run ends.  Self time of a span is its duration minus the durations of
its direct child spans; calls are single-threaded and nested, so children never
overlap and the self times of one op sum to at most the op's duration.

Two counters are computed at the ``stableterms.all_terms`` boundary:
multiply-adds derived from the operand shapes (not measured by hardware), and
the distinct terms callers read out of each returned ``StableTermSet`` against
the terms it built.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, function) pairs wrapped in a traced run; per-layer metrics are
# named "<module>.<function>.{calls,total_s,self_s}".
TRACED = (
    ("weightspace", "random_weights"),
    ("weightspace", "save"),
    ("weightspace", "load"),
    ("jsonio", "dump_path"),
    ("jsonio", "load_path"),
    ("monomial", "act"),
    ("monomial", "sample"),
    ("stableterms", "all_terms"),
    ("layers", "init_equivariant"),
    ("layers", "init_invariant"),
    ("layers", "equivariant_forward"),
    ("layers", "invariant_forward"),
    ("layers", "stack_forward"),
    ("layers", "save_params"),
    ("layers", "load_params"),
    ("fitting", "featurize"),
    ("fitting", "design_matrix"),
    ("fitting", "fit_ridge"),
    ("fitting", "evaluate"),
    ("fitting", "predict"),
    ("netfunc", "probe_targets"),
    ("netfunc", "mlp_forward"),
    ("oracle", "naive_equivariant_forward"),
    ("oracle", "naive_invariant_forward"),
    ("oracle", "independence_report"),
)

SUITES = ("group", "stability", "chains", "netinv", "equiv", "inv", "stack", "oracle", "rank")

# Families of a StableTermSet that all_terms computes; ``b`` only exposes the
# raw biases and is not counted as built.
_BUILT_FAMILIES = ("w", "wb", "bw", "ww")


class _ReadLog(dict):
    """A dict that records, as ``(family, key)``, every key a caller reads."""

    def __init__(self, data, seen: set, family: str):
        super().__init__(data)
        self._seen = seen
        self._family = family

    def __getitem__(self, key):
        self._seen.add((self._family, key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._seen.add((self._family, key))
        return super().get(key, default)

    def _read_all(self):
        self._seen.update((self._family, k) for k in self.keys())

    def items(self):
        self._read_all()
        return super().items()

    def values(self):
        self._read_all()
        return super().values()

    def __iter__(self):
        self._read_all()
        return super().__iter__()


def all_terms_madds(U) -> int:
    """Multiply-adds of one ``all_terms(U, psi)`` call, from operand shapes.

    Counts the chain products, ``[Wb]`` matrix-vector products, the ``[bW]``
    outer products and chain products, and the two ``[WW]`` products, exactly
    as ``stableterms.all_terms`` evaluates them.
    """
    spec = U.spec
    L, n = spec.L, spec.n
    rows = (U.batch or 1) * spec.d
    total = 0
    for t in range(L):
        for s in range(t + 2, L + 1):
            total += n[s] * n[s - 1] * n[t]
    for s in range(2, L + 1):
        for t in range(1, s):
            total += n[s] * n[t]
    for s in range(1, L + 1):
        for t in range(L):
            total += n[s] * n[L] + n[s] * n[L] * n[t]
            total += n[s] * n[0] * n[L] + n[s] * n[L] * n[t]
    return rows * total


class Tracer:
    """Records spans of the wrapped functions; attach it only around an op."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.madds = 0
        self.term_reads: list[tuple[int, set]] = []  # (terms built, keys read)
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Mark one timed op; spans are recorded only inside it."""
        self._op = op_id
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    def _wrap(self, name, fn, span_name=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(span_name(args, kwargs) if span_name else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            return post(out, args) if post else out

        return wrapper

    def _count_terms(self, terms, args):
        self.madds += all_terms_madds(args[0])
        seen: set = set()
        built = sum(len(getattr(terms, fam)) for fam in _BUILT_FAMILIES)
        self.term_reads.append((built, seen))
        logged = {fam: _ReadLog(getattr(terms, fam), seen, fam) for fam in _BUILT_FAMILIES}
        return type(terms)(terms.spec, b=terms.b, **logged)

    # -- installation ------------------------------------------------------

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every reference held by
        a loaded magep module to a traced function."""
        modules = [m for k, m in sys.modules.items() if k == "magep" or k.startswith("magep.")]
        out = []
        for mod_name, fn_name in TRACED:
            orig = getattr(sys.modules[f"magep.{mod_name}"], fn_name)
            post = self._count_terms if fn_name == "all_terms" else None
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, post=post)
            for mod in modules:
                out.extend((mod, attr, orig, wrapper) for attr, v in vars(mod).items() if v is orig)
        # run_suites looks run_suite up as a module global on every call.
        checks = sys.modules["magep.checks"]
        suite_span = lambda args, kwargs: f"checks.suite.{args[0] if args else kwargs['name']}"
        out.append(
            (checks, "run_suite", checks.run_suite,
             self._wrap("checks.run_suite", checks.run_suite, span_name=suite_span))
        )
        return out

    def attach(self) -> None:
        """Rebind every traced function to its wrapper."""
        if not self._patched:
            self._patched = self._bindings()
        for mod, attr, _, wrapper in self._patched:
            setattr(mod, attr, wrapper)

    def detach(self) -> None:
        """Restore the original functions."""
        for mod, attr, orig, _ in self._patched:
            setattr(mod, attr, orig)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its direct children's."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def per_op(self, traced_ops: int) -> dict[str, float]:
        """Per-layer metrics, each averaged over the traced ops."""
        selfs = self.self_times()
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for span, own in zip(self.spans, selfs):
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            # A recursive call would count twice in total_s; none of the
            # traced functions calls itself.
            total[name] = total.get(name, 0.0) + (span[2] - span[1])
        metrics: dict[str, float] = {}
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            metrics[f"{name}.calls"] = calls.get(name, 0) / traced_ops
            metrics[f"{name}.total_s"] = total.get(name, 0.0) / traced_ops
            metrics[f"{name}.self_s"] = self_s.get(name, 0.0) / traced_ops
        for suite in SUITES:
            name = f"checks.suite.{suite}"
            metrics[f"{name}.total_s"] = total.get(name, 0.0) / traced_ops
        metrics["stableterms.all_terms.madds"] = self.madds / traced_ops
        built = sum(b for b, _ in self.term_reads)
        read = sum(len(seen) for _, seen in self.term_reads)
        metrics["stableterms.terms_read_ratio"] = read / built if built else 0.0
        return metrics

    def op_durations(self) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == "op"]

    def wrapped_self_sum(self) -> float:
        """Sum of self times over every span except the op roots."""
        return sum(own for s, own in zip(self.spans, self.self_times()) if s[0] != "op")

    def dump(self, path) -> None:
        """Write spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    f'{{"id":{i},"name":"{name}","start":{start!r},"end":{end!r},'
                    f'"parent":{"null" if parent is None else parent},"op":{op}}}\n'
                )
