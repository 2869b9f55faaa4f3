"""The four seeded workloads.

Each workload turns a seed into one cycle of requests, each an s-expression
text handed to the program the way `termrw prove` receives it.  The
harness replays the cycle back-to-back.  Every cycle has the same
composition and order whatever the seed (the same depths, alist sizes,
term sizes, rule sets and request kinds in the same places); the seed picks
leaf keys, values and the random conjectures.  Quantiles then land in the
same request class on every seed, and the program allocates in the same
pattern, so garbage-collection pauses fall on the same requests.

Answers are checked against the generator, never against the rewriter:
tree conjectures are true by construction, alist reads are compared with
the generator's own record of the alist, and verify requests with the
program's sampling oracle (check_run), which evaluates terms instead of
rewriting them.

The program is reached only through module attributes looked up at call
time (terms.parse_term, validate.check_run, ...), so the traced run's
wrappers see every call.
"""

import random
import time
from dataclasses import dataclass

from termrw import rewriter, terms, validate
from termrw.terms import App, Cons, Quote, Var

import engines


@dataclass
class Request:
    kind: str  # reporting class, e.g. "depth-9", "write", "read-old", "random-arith"
    text: str
    size: int = 0  # tree depth, or the alist size a falist request starts from
    version: int = -1  # the alist version a falist request reads; -1 is 'nil
    engine: str = ""
    expect: object = None
    known_defect: bool = False  # a ROADMAP defect: counted as failed, not as a broken benchmark
    pool: str = ""  # requests that share a pool do the same work; "" pools a request alone
    check_seed: int = 0


@dataclass
class Answer:
    """What one request produced, before its check."""

    term: object  # the parsed input, for node counts
    value: object
    counters: dict
    rewrite_s: float


def interleave(groups):
    """Merge lists of requests so that each list is spread evenly over the
    cycle: the j-th of c requests sits at (j + 0.5) / c."""
    slots = [((j + 0.5) / len(g), i, r) for i, g in enumerate(groups) for j, r in enumerate(g)]
    return [r for _, _, r in sorted(slots, key=lambda slot: slot[:2])]


def _fresh_stats(rw):
    rw.stats = rewriter.RewriteStats()
    return rw


# ---------------------------------------------------------------------------
# tree-sc and tree-backchain

# depth -> requests per cycle.  Each cycle holds 110 trees, so at least 11
# lie at or above p90, and p50 and p90 each fall inside one depth class
# rather than on a boundary: d6 and d8 on tree-sc, d3 and d5 on tree-backchain.
# Smaller trees are more frequent, so a cycle is short and a run repeats
# every request several times.
TREE_DEPTHS = {
    "tree-sc": {5: 44, 6: 33, 7: 20, 8: 11, 9: 1, 10: 1},
    "tree-backchain": {3: 77, 4: 16, 5: 15, 6: 1, 7: 1},
}


def tree_text(rng, depth):
    """(equal <logand tree> <4vec-bitand tree>) over the same seeded leaves
    (iassoc 'k<n> env): true by construction, and proving it needs integerp
    at every logand node."""
    keys = [f"k{n}" for n in rng.sample(range(10_000_000), 1 << depth)]

    def side(head):
        level = [f"(iassoc '{k} env)" for k in keys]
        while len(level) > 1:
            level = [f"({head} {level[i]} {level[i + 1]})" for i in range(0, len(level), 2)]
        return level[0]

    return f"(equal {side('logand')} {side('4vec-bitand')})"


class Trees:
    def __init__(self, name, seed, setup):
        rng = random.Random(seed)
        self.rw = setup["engines"][engines.RULE_FILES[name][0]]
        self.requests = interleave(
            [[Request(f"depth-{d}", tree_text(rng, d), size=d, pool=f"depth-{d}") for _ in range(count)]
             for d, count in sorted(TREE_DEPTHS[name].items())]
        )

    def start_cycle(self):
        pass

    def run(self, req):
        t = terms.parse_term(req.text)
        rw = _fresh_stats(self.rw)
        t0 = time.perf_counter()
        proved, _out = rw.proved(t)
        return Answer(t, proved, rw.stats.as_dict(), time.perf_counter() - t0)

    def check(self, req, answer):
        return answer.value is True


# ---------------------------------------------------------------------------
# falist

FA_BLOCKS = 30  # write requests per session
FA_BLOCK = 50  # hons-acons per write; the alist grows to 1500 entries
FA_REBINDS = 5  # of each later block, keys that rebind an existing key
FA_READS = 3  # read batches after each write; the last reads an older version
FA_GETS = 50  # hons-get per read batch
FA_HITS = 38  # of FA_GETS, keys bound in the version read


def _hons_acons_text(block):
    text = "fal"
    for k, (_, v) in block:
        text = f"(hons-acons '{k} {v} {text})"
    return text


class Falist:
    """One session: writes extend the current alist by a block of
    hons-acons; reads are batches of hons-get on the current alist or, in a
    fixed share, on an older version that has since been extended; the
    session ends with fast-alist-free.  `log` is the generator's record of
    every binding in order, and version i holds log[:sizes[i]].
    """

    def __init__(self, name, seed, setup):
        rng = random.Random(seed)
        self.rw = setup["engines"][""]
        fresh = (f"k{n}" for n in rng.sample(range(10_000_000), FA_BLOCKS * FA_BLOCK * 2))
        log = []
        sizes = []
        reqs = []
        for w in range(FA_BLOCKS):
            bound = list(dict.fromkeys(k for k, _ in log))
            rebinds = rng.sample(bound, FA_REBINDS) if bound else []
            keys = rebinds + [next(fresh) for _ in range(FA_BLOCK - len(rebinds))]
            rng.shuffle(keys)
            # values are variables: with quoted values the executable
            # counterpart of hons-acons would fold the chain into a constant
            block = [(k, ("var", f"v{rng.randrange(1_000_000)}")) for k in keys]
            reqs.append(Request("write", _hons_acons_text(block), size=len(log), version=w - 1))
            log.extend(block)
            sizes.append(len(log))
            for r in range(FA_READS):
                old = r == FA_READS - 1 and w > 0
                version = rng.randrange(w) if old else w
                reqs.append(self._read(rng, log, sizes[version], version, fresh, "read-old" if old else "read"))
        reqs.append(Request("free", "(fast-alist-free fal)", size=len(log), version=FA_BLOCKS - 1))
        self.log = log
        self.sizes = sizes
        self.requests = reqs
        self.versions = []

    @staticmethod
    def _read(rng, log, size, version, fresh, kind):
        current = dict(log[:size])
        later = [k for k, _ in log[size:] if k not in current]
        keys = rng.sample(sorted(current), FA_HITS)
        misses = FA_GETS - FA_HITS
        n_later = min(len(later), misses // 2)
        keys += rng.sample(later, n_later) + [next(fresh) for _ in range(misses - n_later)]
        rng.shuffle(keys)
        expected = "nil"
        for k in reversed(keys):
            expected = (((k, current[k]) if k in current else "nil"), expected)
        text = "(list " + " ".join(f"(hons-get '{k} fal)" for k in keys) + ")"
        return Request(kind, text, size=size, version=version, expect=expected)

    def start_cycle(self):
        self.versions = []

    def run(self, req):
        t = terms.parse_term(req.text)
        fal = self.versions[req.version] if req.version >= 0 else terms.NIL_TERM
        rw = _fresh_stats(self.rw)
        t0 = time.perf_counter()
        out = rw.rewrite(terms.substitute(t, {"fal": fal}), iff=False)
        dt = time.perf_counter() - t0
        if req.kind == "write":
            self.versions.append(out)
        return Answer(t, out, rw.stats.as_dict(), dt)

    def check(self, req, answer):
        out = answer.value
        if req.kind == "write":
            if not (isinstance(out, App) and out.head == "falist" and len(out.args) == 2):
                return False
            return _alist_pairs(out.args[1]) == self.log[: req.size + FA_BLOCK][::-1]
        if req.kind == "free":
            return _alist_pairs(out) == self.log[::-1]
        return _value(out) == req.expect


def _py(v):
    """A program value as plain Python: conses become pairs."""
    if isinstance(v, Cons):
        return (_py(v.car), _py(v.cdr))
    return v


_UNKNOWN = object()


def _value(t):
    """The value of a term built from quote, cons, list and variables, with
    a variable standing for itself as ("var", name)."""
    if isinstance(t, Var):
        return ("var", t.name)
    if isinstance(t, Quote):
        return _py(t.value)
    if isinstance(t, App) and t.head == "cons" and len(t.args) == 2:
        return (_value(t.args[0]), _value(t.args[1]))
    if isinstance(t, App) and t.head == "list":
        out = "nil"
        for a in reversed(t.args):
            out = (_value(a), out)
        return out
    return _UNKNOWN


def _alist_pairs(t):
    """(key, value) pairs of an alist term, first binding first: a chain of
    (cons (cons 'k 'v) tail) or (hons-acons 'k 'v tail) ending in a quoted
    alist.  None for any other shape."""
    pairs = []
    while isinstance(t, App):
        if t.head == "cons" and len(t.args) == 2:
            pair, t = _value(t.args[0]), t.args[1]
        elif t.head == "hons-acons" and len(t.args) == 3:
            pair, t = (_value(t.args[0]), _value(t.args[1])), t.args[2]
        else:
            return None
        if not isinstance(pair, tuple):
            return None
        pairs.append(pair)
    v = _value(t)
    while isinstance(v, tuple) and isinstance(v[0], tuple):
        pairs.append(v[0])
        v = v[1]
    return pairs if v == "nil" else None


# ---------------------------------------------------------------------------
# verify

VERIFY_SAMPLES = 250  # check_run environments per request, as `prove --verify 250`
VERIFY_RANDOM = 48  # random conjectures per rule set per cycle
VERIFY_METAS_EVERY = 4  # every 4th random conjecture runs with the demo metas
VERIFY_RULESETS = ("arith", "bitand", "tree", "tree-backchain")

_UNARY = ("unary--", "evenp", "integerp", "not", "consp", "atom", "f2", "neg-m2", "round-to-even")
_BINARY = ("binary-+", "binary-logand", "4vec-bitand", "floor", "mod", "equal", "cons", "lexorder")


def random_text(rng, depth):
    """(text, node count) of a random conjecture of at most `depth` levels
    over functions with executable counterparts, so check_run can evaluate
    it."""
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.5:
            return rng.choice("abc"), 1
        if roll < 0.85:
            return str(rng.randint(-6, 6)), 1
        return "'" + rng.choice(("t", "nil", "foo")), 1
    roll = rng.random()
    if roll < 0.15:
        head, arity = "if", 3
    elif roll < 0.5:
        head, arity = rng.choice(_UNARY), 1
    else:
        head, arity = rng.choice(_BINARY), 2
    args = [random_text(rng, depth - 1) for _ in range(arity)]
    return f"({head} {' '.join(a for a, _ in args)})", 1 + sum(n for _, n in args)


# Node counts of the random conjectures in every cycle, in order: the sizes
# of VERIFY_RANDOM draws from a fixed stream, so term size is not left to
# the seed.  The seed draws until it gets a conjecture of each size.
_fixed = random.Random(0)
VERIFY_SIZES = [random_text(_fixed, 4)[1] for _ in range(VERIFY_RANDOM)]


def random_text_of_size(rng, size):
    while True:
        text, n = random_text(rng, 4)
        if n == size:
            return text


class Verify:
    """`prove --verify` requests: rewrite, then check_run on the result.
    The round-to-even conjectures must also prove.  The plus-truthy repro
    is ROADMAP item 1: check_run rejects its output until that is fixed."""

    def __init__(self, name, seed, setup):
        rng = random.Random(seed)
        self.engines = setup["engines"]
        groups = [
            [Request("round-to-even", engines.read_input(f"{n}-round-to-evens.lsp"), engine="arith", expect=True)
             for n in ("three", "four")],
            [Request("plus-truthy-repro", engines.read_input("plus-truthy-repro.lsp"), engine="plus-truthy",
                     known_defect=True)],
        ]
        for rs in VERIFY_RULESETS:
            groups.append([
                Request(f"random-{rs}", random_text_of_size(rng, n),
                        engine=rs + "+metas" if i % VERIFY_METAS_EVERY == 0 else rs)
                for i, n in enumerate(VERIFY_SIZES)
            ])
        self.requests = interleave(groups)
        for r in self.requests:
            r.check_seed = rng.randrange(1 << 31)

    def start_cycle(self):
        pass

    def run(self, req):
        t = terms.parse_term(req.text)
        rw = _fresh_stats(self.engines[req.engine])
        t0 = time.perf_counter()
        proved, out = rw.proved(t)
        dt = time.perf_counter() - t0
        report = validate.check_run(t, out, [], VERIFY_SAMPLES, rw.registry, mode="iff", seed=req.check_seed)
        counters = rw.stats.as_dict()
        counters.update(
            samples_accepted=report.accepted,
            samples_skipped=report.skipped,
            samples_failed=len(report.failures),
            starved=report.starved,
        )
        return Answer(t, (proved, report.ok), counters, dt)

    def check(self, req, answer):
        proved, ok = answer.value
        return ok and (proved or not req.expect)


# Seconds one cycle takes on the host the benchmark was defined on (2 vCPUs,
# CPython 3.11); a run makes --seconds / CYCLE_SECONDS measured cycles.
# tree-backchain's heap grows by about 36 MB per cycle at the defining commit
# (README.md), so its runs stop at MAX_CYCLES, near 620 MB.
CYCLE_SECONDS = {"tree-sc": 1.9, "tree-backchain": 1.0, "falist": 0.8, "verify": 1.15}
MAX_CYCLES = {"tree-backchain": 16}

WORKLOADS = {"tree-sc": Trees, "tree-backchain": Trees, "falist": Falist, "verify": Verify}
