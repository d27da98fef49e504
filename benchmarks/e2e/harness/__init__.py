"""The end-to-end benchmark harness (see ``benchmarks/e2e/README.md``).

Everything here drives ``repro`` from outside, through its public entry
points, and times those calls; nothing under ``src/`` knows this exists.
"""
