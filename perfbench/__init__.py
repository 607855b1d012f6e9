"""A seeded benchmark of the Deceit simulator: what a simulated cell costs
its users (virtual latency, messages, bytes, commits per operation) and
what the simulator costs to run (host CPU, memory), layer by layer.
Entry point: ``perfbench/run.py``; see ``perfbench/README.md``."""
