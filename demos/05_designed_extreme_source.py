"""A source whose conditional entropies disagree as hard as possible.

For a chosen order alpha0 > 1, a two-class source is tuned so that as
its size parameter N grows, H_{alpha0}(X|Y) climbs toward 1 while
H_{alpha0+1}(X|Y) collapses toward 0.  A vanishing fraction of output
symbols pins the input exactly (their share of the power sums dominates
at high orders), while the bulk of symbols reveal nothing (they dominate
at low orders).  Which symbols are "effective" flips with the order.

The closed form for the entropy is checked against direct evaluation of
the explicitly constructed two-atom distribution at every point.
"""

from polarlens import (
    ExtremeExampleParams,
    effective_set,
    extreme_example_distribution,
    extreme_example_sweep,
)

alpha0 = 2.0
rows = extreme_example_sweep(alpha0, range(8, 29))

print(f"designed for alpha0 = {alpha0:g}")
print(f"  {'N':>4}  {'H_2':>10}  {'H_3':>10}  {'|closed - direct|':>18}")
by_size = {}
for r in rows:
    by_size.setdefault(r.size, {})[r.order.alpha] = r
for size in sorted(by_size):
    h2 = by_size[size][2.0]
    h3 = by_size[size][3.0]
    print(
        f"  {size:>4}  {h2.closed_form:10.6f}  {h3.closed_form:10.6f}"
        f"  {max(h2.abs_diff, h3.abs_diff):18.2e}"
    )

print("""
H_2 rises toward 1 while H_3 falls toward 0: adjacent orders of the
same source heading to opposite extremes.  A code designed for one
order can be arbitrarily wrong about the next.
""")

params = ExtremeExampleParams(alpha0=alpha0, size=16)
d = extreme_example_distribution(params)
print("at N=16 the source has two atom classes:")
for i, a in enumerate(d.atoms()):
    kind = "deterministic (pins X)" if a.p1 == 0.0 else "uninformative (coin flip)"
    print(f"  atom {i}: ({a.p0:.3e}, {a.p1:.3e}) weight {a.weight:9.2f}  {kind}")

for a in (2.0, 3.0):
    rep = effective_set(d, a)
    first = "uninformative" if rep.indices[0] == 1 else "deterministic"
    print(
        f"alpha={a:g}: greedy cover picks the {first} class first "
        f"(num share {rep.num_share:.4f}, den share {rep.den_share:.4f})"
    )
