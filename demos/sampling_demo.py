"""
Drawing paths uniformly at random
=================================

The recursive method: tabulate, for every length and end state, how many
paths reach it, so that the ensemble's paths can be numbered 0..total-1.
A draw takes one random rank, ``randrange(total)``, and unranks it: the
running totals of the end states say which state the rank falls in, and a
walk back through the tables turns the rest of the rank into the path.
Unranking is a bijection, so every path of the target length comes out
with probability exactly 1/total, and a fixed seed gives a reproducible draw.
"""

from collections import Counter

from catwalk import preset
from catwalk.sampler import Sampler, SamplerSpec, sample

spec = SamplerSpec(preset("skew-cat"), n=10, final="closed", seed=7)
print(f"closed skew-cat paths of length {spec.n}: {Sampler(spec.config, spec.n, spec.final).total}")

draws = sample(spec, 12)
for path in draws:
    print("  ", path)

# Same seed, same draws.
again = sample(spec, 12)
print("reproducible:", [str(p) for p in draws] == [str(p) for p in again])

# Uniformity check on a small ensemble where we can see every member:
# the ten closed skew paths of length six should each get ~10% of draws.
small = SamplerSpec(preset("skew"), n=6, final="closed", seed=2024)
counts = Counter(str(p) for p in sample(small, 5000))
print()
print(f"5000 draws over the {Sampler(small.config, small.n, small.final).total} closed skew paths of length 6:")
for word, hits in sorted(counts.items()):
    bar = "#" * (hits // 20)
    print(f"  {word}  {hits / 5000:6.1%}  {bar}")
