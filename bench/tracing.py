"""Per-layer attribution by wrapping the public names each module looks up.

The tracer replaces module attributes such as ``logic.derive_paths`` with
timing wrappers, runs the traced pass, and restores every original. Nothing
inside ``src/`` is edited: a module that calls ``derive_paths`` looks the name
up in its own globals at call time, so it reaches the wrapper.

Every wrapper keeps a frame on a stack. A frame's self time is its duration
minus the durations of the wrapped calls made inside it, so recursion through
a wrapped name is counted once. Coarse names also record a span (name, start,
end, parent span, query id). Hot names only add to per-name counts and times.

A hook may run after a wrapped call to derive a count from its arguments and
result (paths, distinct states, assignments tried). Hook time is excluded
from every self time and from the traced end-to-end time.
"""

from __future__ import annotations

import importlib
import time

PKG = "constrex"

# metric -> the (module, attribute) names whose self times it sums. A metric
# whose names all vanished from the program is reported as absent.
TIME_GROUPS = {
    "parser.parse_ms": [
        ("parser", "parse_expression"), ("parser", "parse_formula"),
        ("cli", "parse_environment"), ("cli", "parse_expression"),
        ("cli", "parse_formula")],
    "semantics.regularize_ms": [("semantics", "regularize"), ("cli", "regularize")],
    "semantics.antimirov_ms": [
        ("semantics", "membership_fixed"), ("semantics", "regex_word_derivative"),
        ("cli", "membership_fixed")],
    "derivation.derive_ms": [
        ("logic", "derive_paths"), ("derivation", "derive_expr"),
        ("cli", "derive_expr_word")],
    "derivation.canonical_ms": [("derivation", "canonical")],
    "syntax.print_ms": [
        ("derivation", "expr_str"), ("derivation", "subst_set_str"),
        ("nullability", "formula_str"), ("logic", "term_str"),
        ("cli", "expr_str"), ("cli", "subst_set_str")],
    "syntax.subst_ms": [
        ("derivation", "apply_subst_set"), ("derivation", "subst_expr"),
        ("nullability", "subst_formula"), ("logic", "subst_term")],
    "nullability.indicator_ms": [("logic", "indicator_set"), ("cli", "indicator_set")],
    "logic.normalize_ms": [
        ("logic", "normalize_formula"), ("logic", "normalize_term"),
        ("logic", "propositionalize")],
    "logic.sat_ms": [
        ("logic", "satisfiable_free"), ("logic", "sat_truth_table"),
        ("logic", "prop_alphabet"), ("cli", "satisfiable_free")],
    "logic.witness_ms": [("logic", "build_witness")],
    "logic.membership_self_ms": [
        ("logic", "membership_general"), ("logic", "null_general"),
        ("cli", "membership_general")],
    "cli.run_ms": [("cli", "run")],
}

# Names whose calls are few per query: each call records a span.
COARSE = {
    ("parser", "parse_expression"), ("parser", "parse_formula"),
    ("semantics", "membership_fixed"), ("semantics", "regex_word_derivative"),
    ("logic", "derive_paths"), ("logic", "indicator_set"),
    ("logic", "membership_general"), ("logic", "satisfiable_free"),
    ("logic", "sat_truth_table"), ("logic", "build_witness"), ("cli", "run"),
}

# metric -> (counter the hooks add to, the names whose hooks feed it).
# Counters ending in _max keep a maximum; the others add up.
COUNT_METRICS = {
    "semantics.antimirov_states_max": (
        "antimirov_states_max", [("semantics", "regex_word_derivative")]),
    "derivation.paths": ("paths", [("logic", "derive_paths")]),
    "derivation.distinct_states": ("distinct_states", [("logic", "derive_paths")]),
    "nullability.indicator_pairs": (
        "indicator_pairs", [("logic", "indicator_set"), ("cli", "indicator_set")]),
    "logic.sat_calls": ("sat_calls", [("logic", "sat_truth_table")]),
    "logic.prop_atoms_max": ("prop_atoms_max", [("logic", "sat_truth_table")]),
    "logic.assignments_tried": ("assignments_tried", [("logic", "sat_truth_table")]),
    "logic.null_general_calls": ("null_general_calls", [("logic", "null_general")]),
}

ROOT = "query"


def unit_of(metric):
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def _module(short):
    """The package's module, or None when the program no longer has it."""
    try:
        return importlib.import_module("%s.%s" % (PKG, short))
    except ModuleNotFoundError:
        return None


def _hooks(originals):
    """Count hooks keyed by wrapped name; each returns {counter: value}.

    A hook is either a function of (args, result), or a pair (each, finish)
    for a result that is a sequence of items: ``each(item, seen)`` counts one
    item and ``finish(seen)`` the whole, where ``seen`` is a set kept per call.
    A pair also works when the result is a lazy iterator: items are counted,
    and the time to produce each is charged to the wrapped name, as the
    caller consumes them.
    """
    prop_alphabet = originals.get(("logic", "prop_alphabet"))
    regex_derivative = getattr(_module("semantics"), "regex_derivative", None)

    def antimirov_states(args, _result):
        rx, w = args[0], args[1]
        states = frozenset({rx})
        biggest = 1
        for a in w:
            states = frozenset(d for r0 in states for d in regex_derivative(r0, a))
            biggest = max(biggest, len(states))
        return {"antimirov_states_max": biggest}

    def path(item, seen):
        seen.add(item[0])
        return {"paths": 1}

    def distinct(seen):
        return {"distinct_states": len(seen)}

    def indicator_pair(_item, _seen):
        return {"indicator_pairs": 1}

    def sat(args, result):
        atoms = prop_alphabet(args[0])
        n = len(atoms)
        if result is None:
            tried = 2 ** n
        else:
            index = 0
            for atom in atoms:
                index = 2 * index + (1 if result[atom] else 0)
            tried = index + 1
        return {"sat_calls": 1, "prop_atoms_max": n, "assignments_tried": tried}

    def null_general(_args, _result):
        return {"null_general_calls": 1}

    hooks = {
        ("logic", "derive_paths"): (path, distinct),
        ("logic", "indicator_set"): (indicator_pair, None),
        ("cli", "indicator_set"): (indicator_pair, None),
        ("logic", "null_general"): null_general,
    }
    if regex_derivative is not None:
        hooks[("semantics", "regex_word_derivative")] = antimirov_states
    if prop_alphabet is not None:
        hooks[("logic", "sat_truth_table")] = sat
    return hooks


class Tracer:
    """Installs wrappers, accumulates self times, counts and spans."""

    def __init__(self, with_cli=False):
        self.with_cli = with_cli
        self.self_s = {}        # wrapped name -> seconds of self time
        self.calls = {}         # wrapped name -> number of calls
        self.counts = {counter: 0 for counter, _names in COUNT_METRICS.values()}
        self.spans = []         # (name, start, end, parent index, query id)
        self.hook_s = 0.0
        self.query_id = None
        self._stack = []        # [child seconds, span index]
        self._paused = [False]  # set while a hook runs: wrappers pass through
        self._installed = []
        self.present = set()    # (module, attr) names found and wrapped

    # -- installation -------------------------------------------------------

    def install(self):
        names = {n for group in TIME_GROUPS.values() for n in group}
        if not self.with_cli:
            names = {n for n in names if n[0] != "cli"}
        originals = {}
        for mod_name, attr in sorted(names):
            module = _module(mod_name)
            if module is not None and hasattr(module, attr):
                originals[(mod_name, attr)] = getattr(module, attr)
        hooks = _hooks(originals)
        for key, original in originals.items():
            module = _module(key[0])
            setattr(module, key[1], self._wrap(key, original, hooks.get(key)))
            self._installed.append((module, key[1], original))
            self.present.add(key)
        return self

    def restore(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, key, original, hook):
        name = "%s.%s" % key
        coarse = key in COARSE
        stack = self._stack
        self.self_s.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        clock = time.perf_counter
        paused = self._paused

        def wrapper(*args, **kwargs):
            if paused[0]:
                return original(*args, **kwargs)
            span = -1
            if coarse:
                span = len(spans)
                parent = stack[-1][1] if stack else -1
                spans.append([name, 0.0, 0.0, parent, self.query_id])
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if coarse:
                    spans[span][1] = start
                    spans[span][2] = end
            if hook is None:
                return result
            if not isinstance(hook, tuple):
                self._count(lambda: hook(args, result))
                return result
            each, finish = hook
            seen = set()
            if not isinstance(result, (list, tuple)):
                return self._lazy(name, result, each, finish, seen)

            def eager():
                counts = {}
                for item in result:
                    for counter, value in each(item, seen).items():
                        counts[counter] = counts.get(counter, 0) + value
                counts.update(finish(seen) if finish else {})
                return counts

            self._count(eager)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _lazy(self, name, iterator, each, finish, seen):
        """Pass a lazy result through, timing and counting each item."""
        iterator = iter(iterator)
        try:
            while True:
                frame = [0.0, -1]
                self._stack.append(frame)
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = time.perf_counter() - start
                    self._stack.pop()
                    self.self_s[name] += elapsed - frame[0]
                    if self._stack:
                        self._stack[-1][0] += elapsed
                self._count(lambda: each(item, seen))
                yield item
        finally:
            if finish is not None:
                self._count(lambda: finish(seen))

    def _add_counts(self, counts):
        for counter, value in counts.items():
            if counter.endswith("_max"):
                self.counts[counter] = max(self.counts[counter], value)
            else:
                self.counts[counter] += value

    def begin_counts(self):
        """Start one query's counts; pass the result to ``end_counts``."""
        before = dict(self.counts)
        for counter in before:
            if counter.endswith("_max"):
                self.counts[counter] = 0
        return before

    def end_counts(self, before):
        """The counts of the query since ``begin_counts``."""
        mine = {k: v if k.endswith("_max") else v - before[k]
                for k, v in self.counts.items()}
        self._add_counts({k: before[k] for k in before if k.endswith("_max")})
        return mine

    def _count(self, counts_of):
        """Add the counts ``counts_of()`` returns, outside every timed span."""
        start = time.perf_counter()
        self._paused[0] = True
        try:
            self._add_counts(counts_of())
        finally:
            self._paused[0] = False
        spent = time.perf_counter() - start
        self.hook_s += spent
        if self._stack:
            self._stack[-1][0] += spent

    def query(self, query_id, fn, *args):
        """Run one query as a root span; returns (result, traced seconds)."""
        self.query_id = query_id
        hooks_before = self.hook_s
        span = len(self.spans)
        self.spans.append([ROOT, 0.0, 0.0, -1, query_id])
        frame = [0.0, span]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span][1] = start
            self.spans[span][2] = end
        return result, (end - start) - (self.hook_s - hooks_before)

    # -- reporting ----------------------------------------------------------

    def merge(self, other, query_id):
        """Add a child process's recorded stats (same keys as ``export``)."""
        offset = len(self.spans)
        for name, start, end, parent, _query in other["spans"]:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1, query_id])
        for name, value in other["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value
        for name, value in other["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + value
        self._add_counts(other["counts"])
        self.hook_s += other["hook_s"]
        self.present.update(tuple(k.split(".", 1)) for k in other["present"])

    def export(self):
        return {"self_s": self.self_s, "calls": self.calls, "counts": self.counts,
                "hook_s": self.hook_s, "spans": self.spans,
                "present": sorted("%s.%s" % k for k in self.present)}

    def attributed_s(self):
        return sum(self.self_s.values())

    def per_name(self):
        return {name: {"calls": self.calls[name], "self_ms": 1000.0 * self.self_s[name]}
                for name in sorted(self.self_s)}

    def metrics(self):
        """Per-layer values and the metric names whose wrapped names vanished."""
        out = {}
        absent = []
        for metric, names in TIME_GROUPS.items():
            found = [n for n in names if n in self.present]
            if not found and not (metric.startswith("cli.") and not self.with_cli):
                absent.append(metric)
            out[metric] = 1000.0 * sum(self.self_s.get("%s.%s" % n, 0.0) for n in found)
        for metric, (counter, names) in COUNT_METRICS.items():
            if not any(n in self.present for n in names):
                absent.append(metric)
            out[metric] = self.counts[counter]
        # useful outcomes over attempts: distinct derived states per path
        paths = self.counts["paths"]
        out["derivation.distinct_ratio"] = (
            self.counts["distinct_states"] / paths if paths else 0.0)
        if "derivation.paths" in absent:
            absent.append("derivation.distinct_ratio")
        return out, sorted(absent)

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "query": q}
                for n, s, e, p, q in self.spans]
