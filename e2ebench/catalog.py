"""Names the benchmark reports: metrics with their units, and layers.

The metric names and units are read from ``BENCHMARK.json`` at the root
of the checkout, the one list of them. Kept free of ``repro`` imports
so ``run.py`` can read it before any repetition starts.
"""

import json
import os

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")

with open(SPEC_PATH) as _handle:
    SPEC = json.load(_handle)

#: Workload names, in the order BENCHMARK.json lists them.
WORKLOADS = tuple(entry["name"] for entry in SPEC["workloads"])

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}

#: Every per-layer metric (``--trace 1``) and its unit.
PER_LAYER = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}

#: The ``repro`` packages whose entry points are traced.
LAYERS = ("corpus", "apk", "dex", "android", "decompiler", "javasrc",
          "callgraph", "static_analysis", "endpoints", "exec", "web",
          "netstack", "dynamic", "impact", "longitudinal", "results")

#: The layers expected to dominate self time on each workload.
PREDICTED = {
    "static-cold": ("corpus", "apk", "dex", "android", "decompiler",
                    "javasrc", "callgraph", "static_analysis", "endpoints"),
    "dynamic": ("web", "netstack"),
    "rerun-serve": ("results", "longitudinal"),
}
