"""Show the offered-load oscillation and the arrival stream behind it.

The volatile class follows a squared-sine daily profile on top of the
flat long-term class, so the global cpu load swings between about 0.40
and 0.99 with a 96 time-unit period.
"""

import numpy as np

from slicesim import SliceRequest, build_reference_topology, load_scenario
from slicesim.traffic import LoadModel, generate_events

net = build_reference_topology("full")
classes = load_scenario("reference").classes
model = LoadModel.from_network(classes, net)

print("global cpu load over one period (96 time units):")
for t in np.arange(0.0, 97.0, 8.0):
    load = model.global_load("cpu", t)
    bar = "#" * int(round(load * 60))
    print(f"  t={t:5.1f}  {load:.4f}  {bar}")

# one day of traffic, counted per quarter period
events = generate_events(classes, horizon=96.0, seed=7)
arrivals = [e for e in events if isinstance(e, SliceRequest)]
print(f"\none period sampled with seed 7: {len(arrivals)} arrivals")
for lo in range(0, 96, 24):
    n = sum(1 for a in arrivals if lo <= a.time < lo + 24)
    print(f"  t in [{lo:2d}, {lo + 24:2d}): {n:3d} arrivals")

by_class = {c.id: c.name for c in classes}
for cid, name in by_class.items():
    n = sum(1 for a in arrivals if a.class_id == cid)
    print(f"  class {cid} ({name}): {n} arrivals")
