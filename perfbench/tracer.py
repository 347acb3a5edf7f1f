"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each traced public function with a timing
wrapper on *every* module that holds a binding to it (``equivalence``,
``mz``, ``probes``, ``cli`` and the package itself all import names from
``scheme`` and ``families``), and wraps ``FunctionOracle.evaluate`` on its
class.  Calls inside a module resolve its globals at call time, so nested
calls are traced too.  Spans stay in memory; ``metrics`` reduces them and
``write`` saves them at the end of the run.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter

# (layer module, function, what to record): "span" records a timed span,
# "count" only counts calls (for functions called so often that a span per
# call would dominate the traced run).
TRACED = (
    ("scheme", "construct_exact", "span"),
    ("scheme", "construct_exact_symmetric", "span"),
    ("scheme", "order_info", "span"),
    ("scheme", "moment", "count"),
    ("scheme", "decompose", "span"),
    ("scheme", "scale", "span"),
    ("scheme", "combine", "span"),
    ("scheme", "canonicalize", "span"),
    ("scheme", "scheme_from_json", "span"),
    ("families", "named_scheme", "span"),
    ("families", "recognize_gaussian", "span"),
    ("families", "scale_partners", "span"),
    ("families", "qbinom", "count"),
    ("equivalence", "decide_equivalent", "span"),
    ("equivalence", "verify_witness", "span"),
    ("equivalence", "equivalent_gaussian", "span"),
    ("mz", "mz_check", "span"),
    ("mz", "mz_set_check", "span"),
    ("mz", "n_times_check", "span"),
    ("mz", "verify_quantum_ggr", "span"),
    ("probes", "limit_probe", "span"),
    ("probes", "peano_probe", "span"),
    ("probes", "eval_quotient", "span"),
    ("cli", "build_parser", "span"),
    ("cli", "read_scheme", "span"),
    ("cli", "main", "span"),
)
ORACLE_SPAN = "probes.oracle_eval"
LAYERS = ("scheme", "families", "equivalence", "mz", "probes", "cli")
FAST_PATHS = {"FastNonNegNodes", "FastDistinctAbs", "SymmetricScale"}
# the part of a return value a span keeps, for the ratio metrics
TAGS = {
    "equivalence.decide_equivalent": lambda verdict: verdict.path in FAST_PATHS,
    "equivalence.equivalent_gaussian": lambda match: match is not None,
}

# span tuple fields
SID, PARENT, CMD, NAME, T0, T1, ERR, TAG = range(8)


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for layer, func, kind in TRACED:
        key = f"{layer}.{func}"
        if func == "main":
            names.append(f"{key}.self_ms")
        else:
            names += [f"{key}.calls"] + ([f"{key}.self_ms"] if kind == "span" else [])
    names += [f"{ORACLE_SPAN}.calls", f"{ORACLE_SPAN}.self_ms"]
    names += [f"{layer}.errors" for layer in LAYERS]
    names += [
        "equivalence.fast_path_frac", "equivalence.decides_per_search",
        "equivalence.search_hit_frac", "mz.decides_per_check",
        "probes.membership_hit_frac", "probes.membership_hits",
        "probes.membership_misses", "cli.out_bytes", "trace.cmds", "trace.overhead_frac",
    ]
    return names


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.cmd = 0
        self._stack: list[int] = [0]
        self._next = 1
        self._seen_errors: dict[int, BaseException] = {}
        self._cmd_errors = 0

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        import importlib

        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        for layer, func, kind in TRACED:
            original = getattr(importlib.import_module(f"{package.__name__}.{layer}"), func)
            name = f"{layer}.{func}"
            wrapper = self._span(name, original) if kind == "span" else self._count(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        oracle = importlib.import_module(f"{package.__name__}.probes").FunctionOracle
        oracle.evaluate = self._span(ORACLE_SPAN, oracle.evaluate)

    def _count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        stack, spans, seen = self._stack, self.spans, self._seen_errors
        tag = TAGS.get(name, lambda result: None)

        def spanned(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                origin = id(exc) not in seen
                seen[id(exc)] = exc
                self._cmd_errors += origin
                spans.append((sid, parent, self.cmd, name, t0, t1, origin, None))
                raise
            t1 = perf_counter()
            stack.pop()
            spans.append((sid, parent, self.cmd, name, t0, t1, False, tag(result)))
            return result

        return spanned

    def begin_command(self, cmd: int) -> None:
        self.cmd = cmd
        self._cmd_errors = 0
        self._seen_errors.clear()

    def command_errors(self) -> int:
        """Errors first raised inside traced calls of the current command."""
        return self._cmd_errors

    # -- reduction ---------------------------------------------------------

    def metrics(self, extra: dict) -> dict:
        """Reduce spans and counters to the per-layer metrics; ``extra`` holds
        values measured by the runner (cli.errors, membership cache, bytes)."""
        calls: dict[str, int] = dict(self.counts)
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        by_id = {}
        errors = {layer: 0 for layer in LAYERS}
        for span in self.spans:
            dur = span[T1] - span[T0]
            by_id[span[SID]] = span
            child[span[PARENT]] = child.get(span[PARENT], 0.0) + dur
            calls[span[NAME]] = calls.get(span[NAME], 0) + 1
            if span[ERR]:
                errors[span[NAME].split(".")[0]] += 1
        for span in self.spans:
            self_s = span[T1] - span[T0] - child.get(span[SID], 0.0)
            total[span[NAME]] = total.get(span[NAME], 0.0) + self_s

        def under(span, name):
            parent = by_id.get(span[PARENT])
            while parent is not None:
                if parent[NAME] == name:
                    return True
                parent = by_id.get(parent[PARENT])
            return False

        decides = [s for s in self.spans if s[NAME] == "equivalence.decide_equivalent"]
        searches = [s for s in self.spans if s[NAME] == "equivalence.equivalent_gaussian"]
        fast = sum(1 for s in decides if s[TAG])
        in_search = sum(1 for s in decides if under(s, "equivalence.equivalent_gaussian"))
        in_check = sum(1 for s in decides if under(s, "mz.mz_check"))
        hits = sum(1 for s in searches if s[TAG])

        out = {}
        for name in metric_names():
            key, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = (calls.get(key, 0), "count")
            elif field == "self_ms":
                out[name] = (total.get(key, 0.0) * 1000, "ms")
        errors["cli"] += extra["cli_errors"]
        for layer in LAYERS:
            out[f"{layer}.errors"] = (errors[layer], "count")
        out["equivalence.fast_path_frac"] = (_ratio(fast, len(decides)), "ratio")
        out["equivalence.decides_per_search"] = (_ratio(in_search, len(searches)), "ratio")
        out["equivalence.search_hit_frac"] = (_ratio(hits, len(searches)), "ratio")
        out["mz.decides_per_check"] = (_ratio(in_check, calls.get("mz.mz_check", 0)), "ratio")
        m_hits, m_misses = extra["membership"]
        out["probes.membership_hit_frac"] = (_ratio(m_hits, m_hits + m_misses), "ratio")
        out["probes.membership_hits"] = (m_hits, "count")
        out["probes.membership_misses"] = (m_misses, "count")
        out["cli.out_bytes"] = (extra["out_bytes"], "bytes")
        out["trace.cmds"] = (extra["cmds"], "count")
        out["trace.overhead_frac"] = (extra["overhead_frac"], "ratio")
        return out

    def write(self, path) -> None:
        """Save spans as JSON lines: id, parent, command, name, start, end, error."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s[SID], s[PARENT], s[CMD], s[NAME],
                                         round(s[T0], 7), round(s[T1], 7), s[ERR]]) + "\n")


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when there is nothing to divide (no calls)."""
    return num / den if den else 0.0
