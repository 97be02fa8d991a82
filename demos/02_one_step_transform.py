"""One polar transform step: a conservation law plus a widening split.

Two independent uses of a channel are recombined into a worse "minus"
channel and a better "plus" channel.  At every order alpha the pair obeys

    H(minus) + H(plus) = H(a) + H(b)          (exact conservation)
    H(minus) >= max(H(a), H(b))               (minus gets worse)
    H(plus)  <= min(H(a), H(b))               (plus gets better)

so each step spreads entropies toward the endpoints while the total is
conserved.  The script shows the transformed atoms for a small channel,
in canonical orientation (p0 >= p1, with bitwise-equal atoms merged, so
the mirror-image atoms of BSC(0.2)'s children show up once at double
weight), then the entropy split at several orders, including a compound
step that combines two different channels.
"""

import math

from polarlens import make_bsc, one_step_report, transform_pair

d = make_bsc(0.2)
pair = transform_pair(d)

print("BSC(0.2) atoms:", [(a.p0, a.p1, a.weight) for a in d.atoms()])
print("minus atoms:   ", [(round(a.p0, 4), round(a.p1, 4), a.weight) for a in pair.minus.atoms()])
print("plus atoms:    ", [(round(a.p0, 4), round(a.p1, 4), a.weight) for a in pair.plus.atoms()])

print(f"\nBSC(0.2) with itself")
print(f"  {'alpha':>6}  {'parent':>8}  {'minus':>8}  {'plus':>8}  {'conservation':>12}")
for r in one_step_report(d, orders=(0.1, 0.5, 1.0, 2.0, 10.0, 100.0)):
    print(
        f"  {str(r.order):>6}  {r.parent_a:8.4f}  {r.minus:8.4f}  {r.plus:8.4f}"
        f"  {r.conservation_residual:12.2e}"
    )

print(f"\ncompound step: BSC(0.1) with BSC(0.3)")
a, b = make_bsc(0.1), make_bsc(0.3)
print(f"  {'alpha':>6}  {'H(a)':>8}  {'H(b)':>8}  {'minus':>8}  {'plus':>8}")
for r in one_step_report(a, b, orders=(0.5, 1.0, 2.0, math.inf)):
    ok = r.minus >= max(r.parent_a, r.parent_b) and r.plus <= min(r.parent_a, r.parent_b)
    print(
        f"  {str(r.order):>6}  {r.parent_a:8.4f}  {r.parent_b:8.4f}"
        f"  {r.minus:8.4f}  {r.plus:8.4f}   split ok: {ok}"
    )

print("""
The minus channel always lands above both parents, the plus channel
below both, and the row sums match the parent sums to ~1e-15.  Note the
split is widest around moderate orders and vanishes for parents that
are already extreme.
""")
