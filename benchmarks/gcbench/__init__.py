"""gcbench: the end-to-end + per-layer benchmark every performance claim cites.

Run ``python3 benchmarks/gcbench/run.py`` from the repo root; see README.md
in this directory for the metric glossary and the rules for later changes.
"""
