"""Outside-in layer tracing of softcc.

The tracer replaces softcc's public functions with wrappers, from the
benchmark's side; nothing under ``src/`` changes.  A module-level
function is replaced in every softcc module namespace that binds it,
because ``engine`` and ``observe`` import what they call by name; a
method is replaced on its class.  Reach modules through ``importlib``:
``softcc.observe`` is the re-exported function, not the submodule.

Each wrapped call records a span (id, parent id, root id, name, start,
end) and adds to its name's call count, inclusive time and self time (its
duration minus the wrapped calls made inside it).  Spans under one timed
operation share that operation's root id.  Semiring operations are only
counted: timing calls that cheap would cost more than the calls.  Spans
stay in memory up to a cap and are written out when the run ends.
``uninstall`` puts the original functions back, so untraced passes run
the unwrapped code.
"""

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 100_000

# (module, class or None, attribute, layer name, timed)
TARGETS = [
    ("constraints", "Constraint", "canonical_key", "constraints.canonical_key", True),
    ("constraints", "Constraint", "support", "constraints.support", True),
    ("constraints", None, "combine_project", "constraints.combine_project", True),
    ("constraints", None, "tensor", "constraints.tensor", True),
    ("constraints", None, "leqc", "constraints.leqc", True),
    ("constraints", None, "pointwise_eq", "constraints.pointwise_eq", True),
    ("constraints", None, "project", "constraints.project", True),
    ("semiring", "Semiring", "check", "semiring.check", False),
    ("semiring", "Semiring", "sum", "semiring.sum", False),
    ("semiring", "Semiring", "combine", "semiring.combine", False),
    ("engine", None, "step", "engine.step", True),
    ("engine", "Store", "key", "engine.Store.key", True),
    ("engine", "Store", "materialize", "engine.Store.materialize", True),
    ("engine", "Store", "entails", "engine.Store.entails", True),
    ("engine", "Store", "below_cut", "engine.Store.below_cut", True),
    ("engine", "Store", "tell", "engine.Store.tell", True),
    ("engine", None, "run_all", "engine.run_all", True),
    ("engine", None, "run_one", "engine.run_one", True),
    ("observe", None, "observe", "observe.observe", True),
    ("observe", None, "solve_bb", "observe.solve_bb", True),
    ("observe", None, "cut_program", "observe.cut_program", True),
    ("observe", None, "observables_of", "observe.observables_of", True),
    ("lang", None, "substitute", "lang.substitute", True),
    ("parser", None, "parse_program", "parser.parse_program", True),
]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)  # counts and sizes taken from results
        self.spans = []
        self.dropped = 0
        self._stack = []  # [span id, time covered by wrapped children]
        self._next_id = 1
        self._root = 0  # id of the outermost open span
        self._stores = {}  # id -> Store asked for its key in the current operation
        self._installed = []  # (namespace or class, attribute, original)
        self._hooks = {
            "constraints.combine_project": self._combine_project,
            "constraints.tensor": self._tensor,
            "engine.Store.key": self._store_key,
            "engine.run_all": self._run_all,
            "engine.run_one": self._run_one,
            "observe.solve_bb": self._solve_bb,
            "parser.parse_program": self._parse_program,
        }

    # -- installing the wrappers ----------------------------------------

    def install(self):
        namespaces = [m for n, m in sys.modules.items() if n == "softcc" or n.startswith("softcc.")]
        for module, owner, attr, name, timed in TARGETS:
            mod = importlib.import_module(f"softcc.{module}")
            if owner is not None:
                cls = getattr(mod, owner)
                fn = cls.__dict__[attr]
                self._replace(cls, attr, self.wrap(name, fn) if timed else self._counter(name, fn))
                continue
            fn = getattr(mod, attr)
            wrapper = self.wrap(name, fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._replace(ns, key, wrapper)

    def _replace(self, owner, attr, wrapper):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _counter(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            if self.enabled:
                calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, name, fn):
        hook = self._hooks.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            if parent is None:
                self._root = sid
                self._stores.clear()
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(name, sid, parent, frame[1], start, end)
            if hook is not None:
                hook(out, args)
            return out

        return traced

    def _close(self, name, sid, parent, covered, start, end):
        took = end - start
        self.calls[name] += 1
        self.total_s[name] += took
        self.self_s[name] += took - covered
        if parent is not None:
            parent[1] += took
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent[0] if parent else 0, self._root, name, start, end))
        else:
            self.dropped += 1

    # -- counts taken from results ----------------------------------------

    def _combine_project(self, out, args):
        self.extra["combine_project.max_rows"] = max(self.extra["combine_project.max_rows"], len(out.table))

    def _tensor(self, out, args):
        self.extra["tensor.rows_out"] += len(out.table)

    def _store_key(self, out, args):
        # distinct Store objects per operation; holding them keeps ids unique
        store = args[0]
        if id(store) not in self._stores:
            self._stores[id(store)] = store
            self.extra["Store.key.stores"] += 1

    def _run_all(self, out, args):
        self.extra["run_all.expansions"] += out.expansions
        self.extra["run_all.total_runs"] += out.total_runs

    def _run_one(self, out, args):
        self.extra["run_one.steps"] += out.steps

    def _solve_bb(self, out, args):
        stats = out[1]
        self.extra["solve_bb.iterations"] += stats.iterations
        self.extra["solve_bb.runs_explored"] += stats.runs_explored
        self.extra["solve_bb.runs_pruned"] += stats.runs_pruned

    def _parse_program(self, out, args):
        self.extra["parse_program.bytes"] += len(args[0].encode())

    # -- results ------------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-layer metrics per traced pass, as {name: (value, unit)}."""
        per = 1.0 / passes
        m = {}

        def calls_self(name, self_time=True):
            m[f"{name}.calls"] = (self.calls[name] * per, "count")
            if self_time:
                m[f"{name}.self_s"] = (self.self_s[name] * per, "s")

        def ratio(num, den):
            return num / den if den else 0.0

        x = self.extra
        calls_self("constraints.canonical_key")
        calls_self("constraints.combine_project")
        m["constraints.combine_project.max_rows"] = (x["combine_project.max_rows"], "rows")
        calls_self("constraints.tensor")
        m["constraints.tensor.rows_out"] = (x["tensor.rows_out"] * per, "rows")
        for name in ("leqc", "pointwise_eq", "support", "project"):
            calls_self(f"constraints.{name}")
        for name in ("check", "sum", "combine"):
            calls_self(f"semiring.{name}", self_time=False)
        calls_self("engine.step")
        calls_self("engine.Store.key")
        m["engine.Store.key.calls_per_store"] = (
            ratio(self.calls["engine.Store.key"], x["Store.key.stores"]),
            "ratio",
        )
        for name in ("materialize", "entails", "below_cut", "tell"):
            calls_self(f"engine.Store.{name}")
        m["engine.run_all.expansions"] = (x["run_all.expansions"] * per, "count")
        m["engine.run_all.total_runs"] = (x["run_all.total_runs"] * per, "count")
        m["engine.run_all.expansions_per_s"] = (
            ratio(x["run_all.expansions"], self.total_s["engine.run_all"]),
            "1/s",
        )
        m["engine.run_one.steps_per_s"] = (
            ratio(x["run_one.steps"], self.total_s["engine.run_one"]),
            "1/s",
        )
        for name in ("iterations", "runs_explored", "runs_pruned"):
            m[f"observe.solve_bb.{name}"] = (x[f"solve_bb.{name}"] * per, "count")
        m["observe.solve_bb.explored_per_run"] = (
            ratio(x["solve_bb.runs_explored"], x["run_all.total_runs"]),
            "ratio",
        )
        calls_self("observe.cut_program")
        m["observe.observables_of.self_s"] = (self.self_s["observe.observables_of"] * per, "s")
        calls_self("lang.substitute")
        calls_self("parser.parse_program")
        m["parser.parse_program.bytes_per_s"] = (
            ratio(x["parse_program.bytes"], self.self_s["parser.parse_program"]),
            "B/s",
        )
        return m

    def self_shares(self):
        """Each layer's share of all self time spent in wrapped calls."""
        total = sum(self.self_s.values())
        return sorted(
            ((t / total if total else 0.0, name) for name, t in self.self_s.items()),
            reverse=True,
        )

    def write(self, path, header):
        doc = dict(header)
        doc["span_fields"] = ["id", "parent", "root", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        doc["dropped_spans"] = self.dropped
        doc["calls"] = dict(self.calls)
        doc["self_s"] = dict(self.self_s)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
