"""Spans around calls into termrw's public functions, from outside the
program.

Each wrapped name gets an accumulator [calls, total_s, self_s, hits].  Spans
nest on one stack, so a span's self time is its duration minus the time of
the spans it encloses.  Only aggregates are kept, in memory; the harness
takes a snapshot around each request to get that request's spans.
"""

import time

from termrw import falist, meta, rewriter, rules, terms, validate

# layer name -> (owner, attribute, count only the outermost call).  The
# rewriter's own module globals are wrapped, so only calls the rewriter
# makes are seen, and instantiate's recursion through its global is folded
# into the outermost span.
WRAPPED = {
    "terms.parse_term": (terms, "parse_term", False),
    "terms.strip_rp_deep": (rewriter, "strip_rp_deep", False),
    "rules.parse_rule_file": (rules, "parse_rule_file", False),
    "rules.build_ruleset": (rules, "build_ruleset", False),
    "rewriter.rewrite": (rewriter.Rewriter, "rewrite", False),
    "rewriter.unify": (rewriter, "unify", False),
    "rewriter.instantiate": (rewriter, "instantiate", True),
    "falist.fa_acons": (falist, "fa_acons", False),
    "falist.fa_get": (falist, "fa_get", False),
    "falist.fa_free": (falist, "fa_free", False),
    "meta.apply": (meta.MetaRegistry, "apply", False),
    "evaluator.eval_term": (validate, "eval_term", False),
    "validate.check_run": (validate, "check_run", False),
}

CALLS, TOTAL, SELF, HITS = range(4)


class Tracer:
    def __init__(self):
        self.acc = {name: [0, 0.0, 0.0, 0] for name in WRAPPED}
        self._originals = []

    def install(self):
        stack = []
        clock = time.perf_counter
        for name, (owner, attr, outermost) in WRAPPED.items():
            fn = getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, _span(fn, self.acc[name], stack, clock, outermost))

    def uninstall(self):
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def reset(self):
        for acc in self.acc.values():
            acc[:] = [0, 0.0, 0.0, 0]

    def snapshot(self):
        return {name: tuple(acc) for name, acc in self.acc.items()}


def _span(fn, acc, stack, clock, outermost):
    def traced(*args, **kwargs):
        if outermost and stack and stack[-1][0] is acc:
            return fn(*args, **kwargs)
        frame = [acc, 0.0]
        stack.append(frame)
        t0 = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            stack.pop()
            acc[CALLS] += 1
            acc[TOTAL] += dt
            acc[SELF] += dt - frame[1]
            if stack:
                stack[-1][1] += dt
        if out is not None:
            acc[HITS] += 1
        return out

    traced.__wrapped__ = fn
    return traced
