"""End-to-end benchmark and per-layer trace for sagin_sfc; run it as ``python3 perfbench/run.py``."""
