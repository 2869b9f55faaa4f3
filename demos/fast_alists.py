"""Fast-alist shadowing: hons-acons chains become constant-time tables.

Run:  python3 demos/fast_alists.py
"""

from termrw import RewriteConfig, Rewriter, build_ruleset, format_term, parse_term
from termrw.terms import App, Quote

rw = Rewriter(build_ruleset([]))
chain = parse_term("(hons-acons 'key1 val1 (hons-acons 'key2 val2 (hons-acons 'key3 val3 'nil)))")
fal = rw.rewrite(chain, iff=False)
print("chain:", format_term(chain))
print("shadowed:", format_term(fal))

# The shadow is a cache of the chain: reading the printed text rebuilds it
# from the logical part, so the same term comes back.
back = parse_term(format_term(fal))
print("read back:", format_term(back), f"(same term: {back == fal})")

looked = rw.rewrite(App("hons-get", (Quote("key2"), fal)), iff=False)
print("hons-get 'key2 ->", format_term(looked), f"(probes: {rw.stats.fa_probes})")

freed = rw.rewrite(App("fast-alist-free", (fal,)), iff=False)
print("freed back to the logical chain:", format_term(freed)[:70], "...")

# With shadowing off, the same lookup walks the chain node by node.
off = Rewriter(build_ruleset([]), cfg=RewriteConfig(fast_alist_enabled=False))
chain_off = off.rewrite(chain, iff=False)
looked_off = off.rewrite(App("hons-get", (Quote("key3"), chain_off)), iff=False)
print("linear scan:", format_term(looked_off), f"(node visits: {off.stats.fa_node_visits})")
